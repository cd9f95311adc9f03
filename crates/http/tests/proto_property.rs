//! Property-based tests of the HTTP/1.1 message parser
//! (`ember_http::proto`), the first code that touches untrusted bytes:
//! arbitrary input never panics the request or response reader, the
//! way a valid message is split into reads never changes what parses,
//! and every limit accepts exactly its bound and rejects one more.

use std::io::{BufReader, Read};

use ember_http::proto::{
    read_request, read_request_limited, read_response, ParseError, ReadOutcome, Request,
    MAX_HEADERS, MAX_LINE,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A reader that hands out its bytes in the given chunk sizes (cycled),
/// the way a socket delivers a message in arbitrary segments.
struct Chunked {
    data: Vec<u8>,
    at: usize,
    sizes: Vec<usize>,
    turn: usize,
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.turn % self.sizes.len()];
        self.turn += 1;
        let n = size.min(buf.len()).min(self.data.len() - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

fn chunked(data: &[u8], sizes: Vec<usize>, capacity: usize) -> BufReader<Chunked> {
    BufReader::with_capacity(
        capacity,
        Chunked {
            data: data.to_vec(),
            at: 0,
            sizes,
            turn: 0,
        },
    )
}

/// A random token of `lens.start..lens.end` URL- and header-safe bytes.
fn token(rng: &mut StdRng, lens: std::ops::Range<usize>) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
    let len = rng.random_range(lens);
    (0..len)
        .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())] as char)
        .collect()
}

/// A random valid request and its wire bytes, with CRLF or bare-LF line
/// ends chosen per line.
fn valid_request(seed: u64) -> (Vec<u8>, Request) {
    let mut rng = StdRng::seed_from_u64(seed);
    let method = ["GET", "POST", "PUT", "DELETE"][rng.random_range(0..4)].to_string();
    let path = format!("/{}", token(&mut rng, 0..40));
    let mut headers: Vec<(String, String)> = (0..rng.random_range(0..12))
        .map(|_| {
            let name = format!("X-{}", token(&mut rng, 1..12));
            let value = token(&mut rng, 0..60);
            (name, value)
        })
        .collect();
    let body: Vec<u8> = (0..rng.random_range(0..300))
        .map(|_| rng.random())
        .collect();
    if !body.is_empty() || rng.random_bool(0.5) {
        headers.push(("Content-Length".into(), body.len().to_string()));
    }
    let mut wire = Vec::new();
    let line = |wire: &mut Vec<u8>, text: &str, rng: &mut StdRng| {
        wire.extend_from_slice(text.as_bytes());
        wire.extend_from_slice(if rng.random_bool(0.5) { b"\r\n" } else { b"\n" });
    };
    line(&mut wire, &format!("{method} {path} HTTP/1.1"), &mut rng);
    for (name, value) in &headers {
        line(&mut wire, &format!("{name}: {value}"), &mut rng);
    }
    line(&mut wire, "", &mut rng);
    wire.extend_from_slice(&body);
    let request = Request {
        method,
        path,
        headers,
        body,
    };
    (wire, request)
}

fn parsed(outcome: ReadOutcome) -> Request {
    match outcome {
        ReadOutcome::Request(request) => request,
        other => panic!("expected a request, got {other:?}"),
    }
}

fn same_request(a: &Request, b: &Request) -> bool {
    a.method == b.method && a.path == b.path && a.headers == b.headers && a.body == b.body
}

/// Applies `count` random byte flips, inserts and deletions.
fn mutate(bytes: &mut Vec<u8>, count: usize, rng: &mut StdRng) {
    for _ in 0..count {
        let at = rng.random_range(0..=bytes.len());
        match rng.random_range(0..3) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.random_range(0..8),
            1 => bytes.insert(at, rng.random()),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random bytes, and valid messages with random damage, never panic
    /// either reader: every outcome is a request, a close, a typed
    /// parse error or an I/O error.
    #[test]
    fn arbitrary_bytes_never_panic(
        len in 0usize..600,
        damage in 0usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let noise: Vec<u8> = (0..len).map(|_| rng.random()).collect();
        let (mut damaged, _) = valid_request(seed);
        mutate(&mut damaged, damage, &mut rng);
        let mut response = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc".to_vec();
        mutate(&mut response, damage, &mut rng);
        for bytes in [&noise, &damaged, &response] {
            let _ = read_request(&mut BufReader::new(bytes.as_slice()));
            let _ = read_request_limited(&mut BufReader::new(bytes.as_slice()), 16);
            let _ = read_response(&mut BufReader::new(bytes.as_slice()));
        }
    }

    /// However a valid request is split into reads — down to one byte
    /// at a time, behind any buffer size — it parses to the same
    /// request as the whole message in one read.
    #[test]
    fn any_split_of_a_valid_request_parses_identically(
        seed in any::<u64>(),
        chunk_seed in any::<u64>(),
        capacity in 1usize..64,
    ) {
        let (wire, expected) = valid_request(seed);
        let whole = parsed(read_request(&mut BufReader::new(wire.as_slice())).unwrap());
        prop_assert!(same_request(&whole, &expected));
        let mut rng = StdRng::seed_from_u64(chunk_seed);
        let sizes: Vec<usize> = (0..rng.random_range(1..8)).map(|_| rng.random_range(1..20)).collect();
        let split = parsed(read_request(&mut chunked(&wire, sizes, capacity)).unwrap());
        prop_assert!(same_request(&split, &expected));
    }

    /// The response reader is just as indifferent to read boundaries.
    #[test]
    fn any_split_of_a_valid_response_parses_identically(
        body_len in 0usize..200,
        capacity in 1usize..64,
        chunk in 1usize..20,
    ) {
        let body = vec![b'z'; body_len];
        let wire = [
            format!("HTTP/1.1 429 Too Many Requests\r\nRetry-After: 2\r\nContent-Length: {body_len}\r\n\r\n").into_bytes(),
            body.clone(),
        ]
        .concat();
        let split = read_response(&mut chunked(&wire, vec![chunk], capacity)).unwrap();
        prop_assert_eq!(split.status, 429);
        prop_assert_eq!(split.header("retry-after"), Some("2"));
        prop_assert_eq!(split.body, body);
    }
}

fn too_large(outcome: ReadOutcome) -> bool {
    matches!(outcome, ReadOutcome::Invalid(ParseError::TooLarge(_)))
}

/// A request line of exactly `len` bytes.
fn request_line(len: usize) -> String {
    let frame = "GET / HTTP/1.1".len();
    format!("GET /{} HTTP/1.1", "a".repeat(len - frame))
}

#[test]
fn a_line_of_max_line_bytes_is_accepted_with_either_terminator() {
    for end in ["\n", "\r\n"] {
        for (len, accepted) in [(MAX_LINE, true), (MAX_LINE + 1, false)] {
            // The request line at the limit…
            let raw = format!("{}{end}{end}", request_line(len));
            let outcome = read_request(&mut BufReader::new(raw.as_bytes())).unwrap();
            assert_eq!(
                !too_large(outcome),
                accepted,
                "request line {len} ending {end:?}"
            );
            // …and a header line at the limit.
            let header = format!("X: {}", "v".repeat(len - 3));
            let raw = format!("GET / HTTP/1.1{end}{header}{end}{end}");
            let outcome = read_request(&mut BufReader::new(raw.as_bytes())).unwrap();
            match outcome {
                ReadOutcome::Request(request) if accepted => {
                    assert_eq!(request.headers[0].1.len(), len - 3);
                }
                outcome => assert!(
                    !accepted && too_large(outcome),
                    "header {len} ending {end:?}"
                ),
            }
        }
    }
}

#[test]
fn header_count_limit_is_exact() {
    for (count, accepted) in [(MAX_HEADERS, true), (MAX_HEADERS + 1, false)] {
        let headers: String = (0..count).map(|i| format!("X-{i}: v\r\n")).collect();
        let raw = format!("GET / HTTP/1.1\r\n{headers}\r\n");
        match read_request(&mut BufReader::new(raw.as_bytes())).unwrap() {
            ReadOutcome::Request(request) if accepted => assert_eq!(request.headers.len(), count),
            outcome => assert!(!accepted && too_large(outcome), "{count} headers"),
        }
    }
}

#[test]
fn body_limit_is_exact() {
    for max_body in [0usize, 1, 7, 4096] {
        for (len, accepted) in [(max_body, true), (max_body + 1, false)] {
            let raw = [
                format!("POST / HTTP/1.1\r\nContent-Length: {len}\r\n\r\n").into_bytes(),
                vec![b'b'; len],
            ]
            .concat();
            let outcome =
                read_request_limited(&mut BufReader::new(raw.as_slice()), max_body).unwrap();
            match outcome {
                ReadOutcome::Request(request) if accepted => assert_eq!(request.body.len(), len),
                outcome => assert!(
                    !accepted && too_large(outcome),
                    "body {len} over {max_body}"
                ),
            }
        }
    }
}
