//! End-to-end pipeline test: database → channel selection → LTE bring-up
//! → interference management → data delivery, all through the public
//! facade crate, exactly as the quickstart example wires it.

use cellfi::im::manager::{ClientEpochStats, EpochInput, InterferenceManager, ManagerConfig};
use cellfi::lte::cell::{Cell, CellConfig};
use cellfi::lte::earfcn::{Band, Earfcn};
use cellfi::lte::scheduler::UNASSIGNED;
use cellfi::spectrum::client::DatabaseClient;
use cellfi::spectrum::database::SpectrumDatabase;
use cellfi::spectrum::paws::GeoLocation;
use cellfi::spectrum::plan::ChannelPlan;
use cellfi::spectrum::selection::{ChannelSelector, ListenObservation, OccupantKind};
use cellfi::types::geo::Point;
use cellfi::types::time::Instant;
use cellfi::types::units::Dbm;
use cellfi::types::{ApId, ChannelId, UeId};

#[test]
fn full_pipeline_from_database_to_scheduled_bits() {
    // 1. Database interaction over PAWS.
    let mut db = SpectrumDatabase::new(ChannelPlan::Us, vec![]);
    let mut dbc = DatabaseClient::new("e2e-ap", 2, GeoLocation::gps(Point::ORIGIN));
    dbc.refresh(&mut db, Instant::ZERO)
        .expect("the in-process database transport is infallible");
    assert_eq!(dbc.grants().len(), ChannelPlan::Us.len());

    // 2. Channel selection: a full network-listen survey — one CellFi
    // neighbour, one idle channel, everything else busy with foreign
    // (802.11af) networks. The idle channel must win.
    let listen: Vec<ListenObservation> = ChannelPlan::Us
        .channels()
        .iter()
        .map(|ch| match ch.id.0 {
            14 => ListenObservation {
                channel: ch.id,
                energy: Dbm(-70.0),
                occupant: OccupantKind::CellFi,
            },
            15 => ListenObservation {
                channel: ch.id,
                energy: Dbm(-99.0),
                occupant: OccupantKind::Idle,
            },
            _ => ListenObservation {
                channel: ch.id,
                energy: Dbm(-60.0),
                occupant: OccupantKind::Foreign,
            },
        })
        .collect();
    let choice = ChannelSelector::new(ChannelPlan::Us)
        .choose(dbc.grants(), dbc.grants(), &listen, Instant::ZERO)
        .expect("channels granted");
    assert_eq!(choice.channel, ChannelId::new(15));
    dbc.start_operation(&mut db, choice.channel, 36.0, Instant::ZERO)
        .expect("the selector only returns granted channels");
    assert_eq!(db.notification_count(), 1, "SPECTRUM_USE_NOTIFY sent");

    // 3. LTE bring-up on the selected carrier.
    let mut cell = Cell::new(CellConfig::paper_default(ApId::new(0)));
    let carrier = Earfcn::from_frequency(Band::Tvws, choice.centre);
    cell.set_carrier(carrier, Dbm(20.0), Instant::ZERO);
    cell.attach(UeId::new(0));
    cell.attach(UeId::new(1));
    cell.enqueue(UeId::new(0), 10_000);
    cell.enqueue(UeId::new(1), 10_000);

    // 4. Interference management constrains the scheduler.
    let n_sub = cell.grid().num_subchannels();
    let mut im = InterferenceManager::new(n_sub, ManagerConfig::default(), 7);
    let input = EpochInput {
        own_active: 2,
        heard_active: 4, // a neighbour's two clients overheard via PRACH
        clients: (0..2)
            .map(|u| ClientEpochStats {
                ue: UeId::new(u),
                frac_scheduled: vec![0.0; n_sub as usize],
                interfered: vec![false; n_sub as usize],
                est_throughput: vec![500.0; n_sub as usize],
                free_streak: vec![0; n_sub as usize],
            })
            .collect(),
    };
    let decision = im.epoch(&input);
    assert_eq!(
        decision.share, 6,
        "2 of 4 heard clients → half of 13, floored"
    );
    cell.set_allowed_mask(decision.mask.clone());

    // 5. The stock scheduler serves within the mask and bits flow.
    // Rates are one row-major [ue][subchannel] block in attach order.
    let n = n_sub as usize;
    let rates = vec![800.0; 2 * n];
    let mut assignment = vec![UNASSIGNED; n];
    cell.schedule_downlink(&rates, &mut Vec::new(), &mut assignment);
    let used = assignment.iter().filter(|&&row| row != UNASSIGNED).count();
    assert!(used > 0 && used <= 6);
    for (s, &row) in assignment.iter().enumerate() {
        if row != UNASSIGNED {
            assert!(decision.mask[s], "scheduled outside the IM mask");
        }
    }
    let before = cell.total_queued_bits();
    for (s, &row) in assignment.iter().enumerate() {
        if row != UNASSIGNED {
            let ue = cell.attached_ues()[row as usize];
            cell.deliver(ue, rates[s] as u64);
        }
    }
    assert!(cell.total_queued_bits() < before, "no bits delivered");
}

#[test]
fn facade_reexports_cover_every_subsystem() {
    // Compile-time check that the facade exposes each crate; the bodies
    // just touch one symbol from each.
    let _ = cellfi::types::units::Dbm(0.0);
    let _ = cellfi::propagation::pathloss::PathLossModel::tvws_urban();
    let _ = cellfi::lte::amc::CqiTable;
    let _ = cellfi::wifi::phy::McsTable::new(cellfi::wifi::phy::WifiBand::Af6);
    let _ = cellfi::spectrum::plan::ChannelPlan::Eu;
    let _ = cellfi::im::share::fair_share(13, 1, 2);
    let _ = cellfi::sim::metrics::Cdf::new(vec![1.0]);
}
