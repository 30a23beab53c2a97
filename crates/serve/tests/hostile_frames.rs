//! The wire decoders against hostile input: a frame that lies about its
//! element count reserves no more than its bytes could hold, and no byte
//! string — arbitrary, truncated, or one byte off a valid encoding — makes
//! `Request::decode` or `Response::decode` panic. Well-formed values round
//! trip.
//!
//! The bound test records the largest single heap allocation this thread
//! makes (reallocations included) with a recording global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use df_serve::proto::HostErrorKind;
use df_serve::{Priority, Request, Response, ServeError};
use proptest::prelude::*;

/// Records the largest allocation made by the current thread.
struct Recording;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // A const-initialized `Cell` needs no lazy setup or destructor, so
    // touching it from inside the allocator cannot recurse.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every method forwards to `System` unchanged; the record is a
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Recording = Recording;

/// The largest allocation `body` makes on this thread, in bytes.
fn largest_allocation<T>(body: impl FnOnce() -> T) -> (usize, T) {
    LARGEST.with(|m| m.set(0));
    let out = body();
    (LARGEST.with(Cell::get), out)
}

/// Frames that claim `u32::MAX` elements and carry none: a result (17
/// bytes of header, then the count), a stats and a relations list. Each is
/// refused, and decoding it allocates no more than its error message.
#[test]
fn a_lying_element_count_reserves_nothing() {
    let claim = u32::MAX.to_be_bytes();
    let mut result = vec![0];
    result.extend_from_slice(&7u64.to_be_bytes()); // id
    result.extend_from_slice(&1u32.to_be_bytes()); // fan-out
    result.extend_from_slice(&0u32.to_be_bytes()); // empty schema
    result.extend_from_slice(&claim);
    let stats = [&[2][..], &claim].concat();
    let relations = [&[3][..], &claim].concat();
    for frame in [result, stats, relations] {
        let (largest, decoded) = largest_allocation(|| Response::decode(&frame));
        assert!(decoded.is_err(), "tag {} decoded", frame[0]);
        assert!(
            largest <= 256,
            "tag {}: a {largest}-byte allocation",
            frame[0]
        );
    }
}

/// A short string of arbitrary bytes, made valid UTF-8 (invalid sequences
/// become U+FFFD, three bytes each).
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..8).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

fn priority() -> impl Strategy<Value = Priority> {
    prop_oneof![
        Just(Priority::High),
        Just(Priority::Normal),
        Just(Priority::Low)
    ]
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u64>(), priority(), any::<bool>(), text()).prop_map(
            |(id, priority, optimize, text)| {
                Request::Query {
                    id,
                    priority,
                    optimize,
                    text,
                }
            }
        ),
        Just(Request::Stats),
        Just(Request::Relations),
        Just(Request::Ping),
        Just(Request::Shutdown),
        (any::<u64>(), text(), text()).prop_map(|(id, name, text)| Request::InstallView {
            id,
            name,
            text
        }),
        (any::<u64>(), text()).prop_map(|(id, name)| Request::DropView { id, name }),
        (any::<u64>(), text()).prop_map(|(id, name)| Request::ReadView { id, name }),
    ]
}

fn serve_error() -> impl Strategy<Value = ServeError> {
    let kinds = [
        HostErrorKind::InvalidParams,
        HostErrorKind::ReadOnlyExecutor,
        HostErrorKind::UnitPanicked,
        HostErrorKind::Stalled,
        HostErrorKind::Data,
        HostErrorKind::Other,
    ];
    prop_oneof![
        any::<u64>().prop_map(|capacity| ServeError::Busy { capacity }),
        text().prop_map(|detail| ServeError::Parse { detail }),
        (0..kinds.len(), text()).prop_map(move |(k, detail)| ServeError::Host {
            kind: kinds[k],
            detail,
        }),
        text().prop_map(|detail| ServeError::Protocol { detail }),
        Just(ServeError::ShuttingDown),
        text().prop_map(|detail| ServeError::View { detail }),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    let tuples = prop::collection::vec(prop::collection::vec(any::<u8>(), 0..8), 0..4);
    prop_oneof![
        (any::<u64>(), any::<u32>(), text(), tuples).prop_map(|(id, fan_out, schema, tuples)| {
            Response::Result(df_serve::proto::QueryResult {
                id,
                fan_out,
                schema,
                tuples,
            })
        }),
        (any::<u64>(), serve_error()).prop_map(|(id, error)| Response::Error { id, error }),
        prop::collection::vec((text(), any::<u64>()), 0..4).prop_map(Response::Stats),
        prop::collection::vec(text(), 0..4).prop_map(Response::Relations),
        Just(Response::Ok),
    ]
}

/// Decode `payload` both ways; either may accept or refuse it, neither may
/// panic.
fn decode_both(payload: &[u8]) {
    let _ = Request::decode(payload);
    let _ = Response::decode(payload);
}

/// Every proper prefix of `encoding`, and every one-byte change of it.
fn decode_damaged(encoding: &[u8]) {
    for len in 0..encoding.len() {
        decode_both(&encoding[..len]);
    }
    let mut damaged = encoding.to_vec();
    for at in 0..encoding.len() {
        for byte in (0..=u8::MAX).filter(|&b| b != encoding[at]) {
            damaged[at] = byte;
            decode_both(&damaged);
        }
        damaged[at] = encoding[at];
    }
}

proptest! {
    #[test]
    fn arbitrary_payloads_never_panic(payload in prop::collection::vec(any::<u8>(), 0..=256)) {
        decode_both(&payload);
    }

    #[test]
    fn requests_round_trip_and_survive_damage(req in request()) {
        let encoding = req.encode();
        prop_assert_eq!(Request::decode(&encoding).ok(), Some(req));
        decode_damaged(&encoding);
    }

    #[test]
    fn responses_round_trip_and_survive_damage(resp in response()) {
        let encoding = resp.encode();
        prop_assert_eq!(Response::decode(&encoding).ok(), Some(resp));
        decode_damaged(&encoding);
    }
}
