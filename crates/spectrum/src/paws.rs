//! PAWS protocol messages (RFC 7545 subset).
//!
//! "We leverage this observation and build an ETSI-compliant TVWS
//! database client using the PAWS protocol" (§4.2). PAWS is JSON-RPC; we
//! model the message bodies the CellFi client actually exchanges:
//! `INIT_REQ/RESP`, `AVAIL_SPECTRUM_REQ/RESP` and `SPECTRUM_USE_NOTIFY`.
//! All types round-trip through `serde_json`, so the wire format is real
//! even though transport here is an in-process call.
//!
//! One CellFi-specific wrinkle from §4.2: "there is a single database
//! client that manages both the access point and all its mobile clients,
//! and all mobile clients have the same generic location parameters,
//! determined from the access point's location" — represented by
//! [`DeviceDescriptor::master_with_clients`].

use cellfi_types::geo::Point;
use cellfi_types::time::Instant;
use cellfi_types::ChannelId;
use serde::{Deserialize, Serialize};

/// Device type under ETSI EN 301 598.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceType {
    /// Fixed master device (the CellFi access point, GPS-located).
    FixedMaster,
    /// Slave device operating under a master's grant (CellFi clients).
    Slave,
}

/// Identifies a device to the database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceDescriptor {
    /// Manufacturer serial number.
    pub serial: String,
    /// Regulatory device type.
    pub device_type: DeviceType,
    /// Number of slave clients this master answers for (CellFi: the AP
    /// queries once for itself and all its UEs).
    pub client_count: u32,
}

impl DeviceDescriptor {
    /// A CellFi access point answering for `clients` mobile devices.
    pub fn master_with_clients(serial: impl Into<String>, clients: u32) -> DeviceDescriptor {
        DeviceDescriptor {
            serial: serial.into(),
            device_type: DeviceType::FixedMaster,
            client_count: clients,
        }
    }
}

/// Geolocation with uncertainty, as PAWS requires. CellFi uses the AP's
/// GPS fix; clients inherit it with a generous uncertainty (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoLocation {
    /// Position in the simulation plane (stands in for lat/lon).
    pub x: f64,
    /// North coordinate.
    pub y: f64,
    /// Uncertainty radius in metres.
    pub uncertainty: f64,
}

impl GeoLocation {
    /// Location from a GPS fix at `p`.
    pub fn gps(p: Point) -> GeoLocation {
        GeoLocation {
            x: p.x,
            y: p.y,
            uncertainty: 10.0,
        }
    }

    /// As a plain point.
    pub fn point(&self) -> Point {
        Point::new(self.x, self.y)
    }
}

/// `INIT_REQ`: first contact with the database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InitReq {
    /// Requesting device.
    pub device: DeviceDescriptor,
    /// Its location.
    pub location: GeoLocation,
}

/// `INIT_RESP`: database capabilities and cadence rules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InitResp {
    /// How long (seconds) availability answers may be cached.
    pub max_polling_secs: u64,
    /// Ruleset identifier (e.g. "ETSI-EN-301-598-1.1.1").
    pub ruleset: String,
}

/// `AVAIL_SPECTRUM_REQ`: ask for usable channels at a location.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvailSpectrumReq {
    /// Requesting device (master, covering its clients).
    pub device: DeviceDescriptor,
    /// Where the spectrum would be used.
    pub location: GeoLocation,
    /// Request time (simulation clock, µs).
    pub request_time_us: u64,
}

/// One granted channel in an `AVAIL_SPECTRUM_RESP`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpectrumGrant {
    /// The TV channel.
    pub channel: ChannelId,
    /// Maximum permitted EIRP, dBm.
    pub max_eirp_dbm: f64,
    /// Lease expiry (simulation clock, µs).
    pub expires_us: u64,
}

/// `AVAIL_SPECTRUM_RESP`: the grants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvailSpectrumResp {
    /// Granted channels (possibly empty).
    pub grants: Vec<SpectrumGrant>,
    /// When the answer was computed (µs).
    pub response_time_us: u64,
}

/// `SPECTRUM_USE_NOTIFY`: device tells the database what it actually
/// transmits on (required by ETSI before operation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpectrumUseNotify {
    /// Notifying device.
    pub device: DeviceDescriptor,
    /// Channel now in use.
    pub channel: ChannelId,
    /// EIRP in use, dBm.
    pub eirp_dbm: f64,
}

impl SpectrumGrant {
    /// Whether the grant is valid at `now`.
    pub fn valid_at(&self, now: Instant) -> bool {
        now.as_micros() < self.expires_us
    }
}

/// A PAWS wire-format failure.
///
/// Malformed JSON from a spectrum database is a *protocol* failure, not
/// a programming error: an AP must survive it (keep the old grants,
/// re-query later), so parsing returns this instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PawsError {
    /// Which PAWS message failed to parse or serialize.
    pub message_type: &'static str,
    /// The underlying JSON error, rendered.
    pub detail: String,
}

impl std::fmt::Display for PawsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PAWS {}: {}", self.message_type, self.detail)
    }
}

impl std::error::Error for PawsError {}

/// Implement the fallible wire codec for a PAWS message type.
macro_rules! paws_wire {
    ($ty:ident) => {
        impl $ty {
            /// Parse from the PAWS JSON wire form.
            pub fn from_json(json: &str) -> Result<$ty, PawsError> {
                serde_json::from_str(json).map_err(|e| PawsError {
                    message_type: stringify!($ty),
                    detail: e.to_string(),
                })
            }

            /// Serialize to the PAWS JSON wire form.
            pub fn to_json(&self) -> Result<String, PawsError> {
                serde_json::to_string(self).map_err(|e| PawsError {
                    message_type: stringify!($ty),
                    detail: e.to_string(),
                })
            }
        }
    };
}

paws_wire!(InitReq);
paws_wire!(InitResp);
paws_wire!(AvailSpectrumReq);
paws_wire!(AvailSpectrumResp);
paws_wire!(SpectrumUseNotify);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_masters_cover_clients() {
        let d = DeviceDescriptor::master_with_clients("cellfi-ap-001", 12);
        assert_eq!(d.device_type, DeviceType::FixedMaster);
        assert_eq!(d.client_count, 12);
    }

    #[test]
    fn grant_validity_window() {
        let g = SpectrumGrant {
            channel: ChannelId::new(30),
            max_eirp_dbm: 36.0,
            expires_us: Instant::from_secs(3_600).as_micros(),
        };
        assert!(g.valid_at(Instant::from_secs(3_599)));
        assert!(!g.valid_at(Instant::from_secs(3_600)));
    }

    #[test]
    fn avail_spectrum_round_trips_json() {
        let req = AvailSpectrumReq {
            device: DeviceDescriptor::master_with_clients("ap", 3),
            location: GeoLocation::gps(Point::new(1.0, 2.0)),
            request_time_us: 55,
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: AvailSpectrumReq = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn response_round_trips_json() {
        let resp = AvailSpectrumResp {
            grants: vec![SpectrumGrant {
                channel: ChannelId::new(38),
                max_eirp_dbm: 36.0,
                expires_us: 1_000_000,
            }],
            response_time_us: 10,
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: AvailSpectrumResp = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
        assert!(json.contains("38"), "channel id on the wire: {json}");
    }

    #[test]
    fn notify_round_trips_json() {
        let n = SpectrumUseNotify {
            device: DeviceDescriptor::master_with_clients("ap", 0),
            channel: ChannelId::new(40),
            eirp_dbm: 30.0,
        };
        let back: SpectrumUseNotify =
            serde_json::from_str(&serde_json::to_string(&n).unwrap()).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn wire_codec_round_trips() {
        let resp = AvailSpectrumResp {
            grants: vec![SpectrumGrant {
                channel: ChannelId::new(38),
                max_eirp_dbm: 36.0,
                expires_us: 1_000_000,
            }],
            response_time_us: 10,
        };
        let json = resp.to_json().expect("wire serialization is total");
        let back = AvailSpectrumResp::from_json(&json).expect("round trip");
        assert_eq!(back, resp);
    }

    #[test]
    fn malformed_wire_json_is_an_error_not_a_panic() {
        let err = AvailSpectrumResp::from_json("{not json").unwrap_err();
        assert_eq!(err.message_type, "AvailSpectrumResp");
        assert!(!err.detail.is_empty());
        // A truncated but syntactically plausible message also errors.
        assert!(AvailSpectrumResp::from_json("{}").is_err());
        assert!(InitResp::from_json("[1,2,3]").is_err());
        // Numbers outside a field's integer range never become a grant:
        // no lease that never expires, no channel 0 from -1, no
        // truncated expiry.
        let grant = |channel: &str, expires_us: &str| {
            format!(
                "{{\"grants\":[{{\"channel\":{channel},\"max_eirp_dbm\":36,\
                 \"expires_us\":{expires_us}}}],\"response_time_us\":0}}"
            )
        };
        assert!(AvailSpectrumResp::from_json(&grant("38", "1000000")).is_ok());
        assert!(AvailSpectrumResp::from_json(&grant("38", "1e300")).is_err());
        assert!(AvailSpectrumResp::from_json(&grant("-1", "1000000")).is_err());
        assert!(AvailSpectrumResp::from_json(&grant("38", "2.75")).is_err());
        // A negative polling cadence would make every query due.
        let init = r#"{"max_polling_secs":-60,"ruleset":"ETSI-EN-301-598-1.1.1"}"#;
        assert!(InitResp::from_json(init).is_err());
        // Deep nesting is an error, not a stack overflow.
        assert!(AvailSpectrumResp::from_json(&"[".repeat(10_000)).is_err());
    }

    #[test]
    fn init_messages_round_trip() {
        let req = InitReq {
            device: DeviceDescriptor::master_with_clients("ap", 1),
            location: GeoLocation::gps(Point::ORIGIN),
        };
        let back: InitReq = serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back, req);
        let resp = InitResp {
            max_polling_secs: 900,
            ruleset: "ETSI-EN-301-598-1.1.1".into(),
        };
        let back: InitResp = serde_json::from_str(&serde_json::to_string(&resp).unwrap()).unwrap();
        assert_eq!(back, resp);
    }
}
