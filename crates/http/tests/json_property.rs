//! Property-based tests of the JSON request-body decoders
//! (`ember_http::json::parse_{sample,train,rollback}_body`), which read
//! bytes straight off the socket: arbitrary bytes, damaged valid
//! bodies and deeply nested arrays and objects never panic any of them
//! (each yields a body or an error the edge answers `400`), and a valid
//! body still parses after the nesting cap.

use ember_http::json::{parse_rollback_body, parse_sample_body, parse_train_body};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs every decoder over `bytes`; any outcome but a panic passes.
fn decode_all(bytes: &[u8]) {
    let _ = parse_sample_body(bytes);
    let _ = parse_train_body(bytes);
    let _ = parse_rollback_body(bytes);
}

/// A random valid body for one of the three decoders.
fn valid_body(rng: &mut StdRng) -> String {
    match rng.random_range(0..3) {
        0 => {
            let clamp: Vec<String> = (0..rng.random_range(0..6))
                .map(|_| format!("{}", rng.random_range(0..2)))
                .collect();
            format!(
                r#"{{"n_samples": {}, "gibbs_steps": {}, "seed": {}, "clamp": [{}]}}"#,
                rng.random_range(1..9),
                rng.random_range(1..4),
                rng.random::<u32>(),
                clamp.join(", ")
            )
        }
        1 => {
            let rows: Vec<String> = (0..rng.random_range(1..4))
                .map(|_| format!("[{}, {}]", rng.random_range(0..2), rng.random_range(0..2)))
                .collect();
            format!(
                r#"{{"data": [{}], "cd_k": 1, "learning_rate": 0.05, "epochs": 1}}"#,
                rows.join(", ")
            )
        }
        _ => format!(r#"{{"version": {}}}"#, rng.random_range(1..100)),
    }
}

/// `depth` nested openers drawn from `[`, `{"k":` and `{"data":[`,
/// optionally closed again.
fn nested(depth: usize, closed: bool, rng: &mut StdRng) -> Vec<u8> {
    let mut open = Vec::new();
    let mut close = Vec::new();
    for _ in 0..depth {
        match rng.random_range(0..3) {
            0 => {
                open.extend_from_slice(b"[");
                close.push(b']');
            }
            1 => {
                open.extend_from_slice(br#"{"k":"#);
                close.push(b'}');
            }
            _ => {
                open.extend_from_slice(br#"{"data":["#);
                close.extend_from_slice(b"]}");
            }
        }
    }
    if closed {
        open.push(b'1');
        close.reverse();
        open.extend_from_slice(&close);
    }
    open
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random bytes and valid bodies with random flips, inserts and
    /// deletions never panic a decoder.
    #[test]
    fn arbitrary_bytes_never_panic(
        len in 0usize..400,
        damage in 0usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise: Vec<u8> = (0..len).map(|_| rng.random()).collect();
        decode_all(&noise);
        let mut damaged = valid_body(&mut rng).into_bytes();
        for _ in 0..damage {
            let at = rng.random_range(0..=damaged.len());
            match rng.random_range(0..3) {
                0 if at < damaged.len() => damaged[at] ^= 1 << rng.random_range(0..8),
                1 => damaged.insert(at, b"[{]}\":,0"[rng.random_range(0..8)]),
                _ if at < damaged.len() => {
                    damaged.remove(at);
                }
                _ => {}
            }
        }
        decode_all(&damaged);
    }

    /// Nesting of any depth — around the cap or thousands of levels
    /// past it, closed or not — is an error or a body, never a panic or
    /// a stack overflow.
    #[test]
    fn deep_nesting_never_panics(
        near_cap in any::<bool>(),
        closed in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let depth = if near_cap {
            rng.random_range(120..140)
        } else {
            rng.random_range(1_000..40_000)
        };
        let body = nested(depth, closed, &mut rng);
        decode_all(&body);
        prop_assert!(parse_sample_body(&body).is_err());
    }
}

#[test]
fn valid_bodies_still_parse() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..50 {
        let body = valid_body(&mut rng);
        let ok = parse_sample_body(body.as_bytes()).is_ok()
            || parse_train_body(body.as_bytes()).is_ok()
            || parse_rollback_body(body.as_bytes()).is_ok();
        assert!(ok, "{body}");
    }
}
