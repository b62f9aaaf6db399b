//! Activity-mining throughput: tokenizer, stemmer and the full
//! extractor fit/extract path on a synthetic tip corpus.
//!
//! A self-driving harness (`harness = false`): each operation makes
//! one untimed warm-up pass over the corpus, then `SAMPLES` timed
//! passes, and prints the min / mean / max of those passes.

use atsq_text::{stem, tokenize, ActivityExtractor, ExtractorConfig};
use std::hint::black_box;
use std::time::Instant;

/// Timed passes per operation.
const SAMPLES: usize = 10;

/// A deterministic fake tip corpus with realistic redundancy.
fn corpus(n: usize) -> Vec<String> {
    let venues = [
        "coffee shop",
        "art gallery",
        "ramen bar",
        "jazz club",
        "book store",
        "taco truck",
        "wine bar",
        "climbing gym",
    ];
    let verbs = [
        "loved the",
        "great",
        "try the",
        "amazing",
        "best",
        "skip the",
    ];
    let extras = [
        "espresso",
        "paintings",
        "noodles",
        "live music",
        "novels",
        "al pastor",
        "riesling",
        "bouldering",
    ];
    (0..n)
        .map(|i| {
            format!(
                "{} {} at this {}, really {}!",
                verbs[i % verbs.len()],
                extras[i % extras.len()],
                venues[i % venues.len()],
                extras[(i * 3 + 1) % extras.len()],
            )
        })
        .collect()
}

fn main() {
    let tips = corpus(2000);
    let tokens: Vec<String> = tips.iter().flat_map(|t| tokenize(t)).collect();
    let config = ExtractorConfig::default();
    let extractor = ActivityExtractor::fit(tips.iter().map(String::as_str), &config);

    println!(
        "textmine: {} tips, {} tokens, {SAMPLES} samples per operation",
        tips.len(),
        tokens.len()
    );
    println!(
        "{:<24}{:>12}{:>12}{:>12}",
        "operation", "min ms", "mean ms", "max ms"
    );
    time("tokenize_2k_tips", || {
        tips.iter()
            .map(|t| tokenize(black_box(t)).len())
            .sum::<usize>()
    });
    time("stem_corpus_tokens", || {
        tokens
            .iter()
            .map(|t| stem(black_box(t)).len())
            .sum::<usize>()
    });
    time("extractor_fit_2k", || {
        ActivityExtractor::fit(tips.iter().map(String::as_str), &config)
    });
    time("extractor_extract_2k", || {
        tips.iter()
            .map(|t| extractor.extract(black_box(t)).len())
            .sum::<usize>()
    });
}

/// Runs `pass` once to warm up, then `SAMPLES` times under the clock,
/// and prints one table row.
fn time<O>(name: &str, mut pass: impl FnMut() -> O) {
    black_box(pass());
    let ms: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(pass());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let min = ms.iter().copied().fold(f64::INFINITY, f64::min);
    let max = ms.iter().copied().fold(0.0, f64::max);
    let mean = ms.iter().sum::<f64>() / ms.len() as f64;
    println!("{name:<24}{min:>12.3}{mean:>12.3}{max:>12.3}");
}
