//! The counting allocator. One test function: the counter is process-
//! wide, and tests in one binary run on parallel threads.

use cellfi_benchmark::alloc::{allocations, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn counts_exactly_the_allocations_made() {
    let data: Vec<u64> = (0..256).collect();

    let before = allocations();
    let sum: u64 = black_box(&data).iter().sum();
    assert_eq!(
        allocations() - before,
        0,
        "summing a slice allocates nothing"
    );
    assert_eq!(sum, 255 * 256 / 2);

    let before = allocations();
    let boxes: [Box<u64>; 7] = std::array::from_fn(|i| Box::new(black_box(i as u64)));
    assert_eq!(allocations() - before, 7, "one allocation per Box::new");
    drop(black_box(boxes));
}
