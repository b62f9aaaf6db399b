//! Failure injection for the io crate: truncated snapshots, corrupt
//! fields, failing readers and malformed tip logs must all surface as
//! `Error` values with line context — never panics, never silently
//! partial datasets.

use atsq_datagen::{generate, CityConfig};
use atsq_io::{import_checkin_tips, import_checkins, read_dataset, write_dataset};
use atsq_text::ExtractorConfig;
use atsq_types::{ActivityId, DatasetBuilder, Error};
use std::io::{BufRead, BufReader, Read};

/// A reader that yields `n` bytes of the inner data and then errors —
/// a disk dying mid-restore.
struct DyingReader<'a> {
    data: &'a [u8],
    remaining: usize,
}

impl Read for DyingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.remaining == 0 {
            return Err(std::io::Error::other("injected read failure"));
        }
        let n = buf.len().min(self.remaining).min(self.data.len());
        if n == 0 {
            return Ok(0);
        }
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        self.remaining -= n;
        Ok(n)
    }
}

fn snapshot_bytes() -> Vec<u8> {
    let dataset = generate(&CityConfig::tiny(42)).unwrap();
    let mut out = Vec::new();
    write_dataset(&dataset, &mut out).unwrap();
    out
}

#[test]
fn dying_reader_surfaces_as_error() {
    let bytes = snapshot_bytes();
    for keep in [0, 1, 64, bytes.len() / 2] {
        let reader = BufReader::new(DyingReader {
            data: &bytes,
            remaining: keep,
        });
        let err = read_dataset(reader).expect_err("must fail");
        assert!(
            matches!(err, Error::InvalidDataset(_)),
            "keep={keep}: {err}"
        );
    }
}

/// Clean truncation (no I/O error, the file just ends) either fails or
/// yields a dataset no larger than the original — and must never panic.
#[test]
fn truncated_snapshots_never_panic() {
    let bytes = snapshot_bytes();
    let full = read_dataset(BufReader::new(&bytes[..])).unwrap();
    // Cut at every line boundary and a few byte offsets.
    let mut cuts: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    cuts.extend([0, 1, 7, bytes.len().saturating_sub(3)]);
    for cut in cuts {
        match read_dataset(BufReader::new(&bytes[..cut])) {
            Ok(d) => assert!(d.len() <= full.len(), "cut={cut}"),
            Err(e) => assert!(matches!(e, Error::InvalidDataset(_)), "cut={cut}: {e}"),
        }
    }
}

#[test]
fn corrupted_fields_are_rejected_with_line_context() {
    let bytes = snapshot_bytes();
    let text = String::from_utf8(bytes).unwrap();
    // Find a point line and mangle its x coordinate.
    let mangled: String = text
        .lines()
        .map(|l| {
            if l.starts_with("P ") {
                let mut parts: Vec<&str> = l.split_whitespace().collect();
                parts[1] = "not-a-number";
                parts.join(" ")
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let err = read_dataset(BufReader::new(mangled.as_bytes())).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line "), "no line context: {msg}");
    assert!(msg.contains("invalid x"), "wrong diagnosis: {msg}");
}

#[test]
fn unknown_record_kind_is_rejected() {
    let text = "atsq-dataset v1\nZ what is this\n";
    // The reader may call the kind letter out or reject the structure;
    // either way it must be an error, not a skip.
    let res = read_dataset(BufReader::new(text.as_bytes()));
    assert!(
        res.is_err(),
        "unknown record kinds must not be ignored: {res:?}"
    );
}

#[test]
fn checkin_import_propagates_reader_failures() {
    let log = b"alice,34.05,-118.25,100,coffee\nbob,34.0,-118.2,50,art\n";
    let reader = BufReader::new(DyingReader {
        data: log,
        remaining: 10,
    });
    assert!(import_checkins(reader, 0).is_err());

    let reader = BufReader::new(DyingReader {
        data: log,
        remaining: 10,
    });
    assert!(import_checkin_tips(reader, 0, &ExtractorConfig::default()).is_err());
}

#[test]
fn checkin_import_rejects_bad_rows_with_line_numbers() {
    let log = "alice,34.05,-118.25,100,coffee\nbob,91.0,-118.2,50,art\n";
    let err = import_checkins(BufReader::new(log.as_bytes()), 0).unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");

    let log = "alice,34.05,-118.25,100,great tips\nbob,oops,-118.2,50,art\n";
    let err = import_checkin_tips(
        BufReader::new(log.as_bytes()),
        0,
        &ExtractorConfig::default(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
}

/// Restoring a snapshot written by us always succeeds, also for a
/// dataset assembled by hand from a generated one plus a repeated
/// trajectory (no hidden state).
#[test]
fn roundtrip_after_appends() {
    let city = generate(&CityConfig::tiny(5)).unwrap();
    let mut b = DatasetBuilder::new().without_frequency_ranking();
    for i in 0..city.vocabulary().len() as u32 {
        let name = city.vocabulary().name(ActivityId(i)).unwrap();
        assert_eq!(b.observe_activity(name), ActivityId(i));
    }
    for tr in city.trajectories() {
        b.push_trajectory(tr.points.clone());
    }
    b.push_trajectory(city.trajectories()[0].points.clone());
    let dataset = b.finish().unwrap();
    assert_eq!(dataset.len(), city.len() + 1);
    let mut out = Vec::new();
    write_dataset(&dataset, &mut out).unwrap();
    let back = read_dataset(BufReader::new(&out[..])).unwrap();
    assert_eq!(back.len(), dataset.len());
    let lines = BufReader::new(&out[..]).lines().count();
    assert!(lines > dataset.len());
}
