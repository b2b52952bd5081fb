//! Numbers in and out: raw-sample quantiles, the result JSON the run
//! prints last, a minimal JSON reader for `BENCHMARK.json` and stored
//! results, and the regression comparison that applies the bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Nearest-rank quantile of raw samples (`q` in `[0, 1]`); `None` when
/// empty. Sorts `samples` in place.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    Some((q3 - q1) / q2.abs())
}

/// One completed operation of a timed run: a check request, or a
/// `run_cpu` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// When the operation completed, in ns since the run started.
    pub end_ns: u64,
    /// How long the operation took, in ns.
    pub latency_ns: u64,
    /// Motion checks it answered.
    pub checks: u64,
}

/// What one window of a run measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Checks answered per second of the window.
    pub checks_per_s: f64,
    /// Median operation latency, in ns.
    pub p50_ns: u64,
    /// 99th-percentile operation latency, in ns.
    pub p99_ns: u64,
}

/// Splits `samples` in completion order into `n` windows of (nearly)
/// equal operation count and measures each. A window's throughput runs
/// from the previous window's last completion to its own. A run's figures
/// are the medians over its windows, so a burst of load from outside the
/// run moves at most a few windows, not the figure.
pub fn windows(samples: &mut [Sample], n: usize) -> Vec<Window> {
    samples.sort_unstable_by_key(|s| s.end_ns);
    let n = n.clamp(1, samples.len().max(1));
    let mut out = Vec::with_capacity(n);
    let mut from_ns = 0;
    for w in 0..n {
        let part = &samples[w * samples.len() / n..(w + 1) * samples.len() / n];
        let Some(last) = part.last() else { continue };
        let mut lat: Vec<u64> = part.iter().map(|s| s.latency_ns).collect();
        let span_s = (last.end_ns - from_ns).max(1) as f64 / 1e9;
        out.push(Window {
            checks_per_s: part.iter().map(|s| s.checks).sum::<u64>() as f64 / span_s,
            p50_ns: quantile(&mut lat, 0.50).unwrap_or(0),
            p99_ns: quantile(&mut lat, 0.99).unwrap_or(0),
        });
        from_ns = last.end_ns;
    }
    out
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A run's result: the last line of standard output.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Every verdict matched its ground truth.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (error reply, refusal, or wrong verdict).
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Adds a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Serializes as one JSON line. Non-finite values (which JSON cannot
    /// carry) are an error naming the metric.
    ///
    /// # Errors
    ///
    /// A metric value is NaN or infinite.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Malformed input, with the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.at != p.b.len() {
            return Err(format!("trailing content at byte {}", p.at));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.at < self.b.len() && self.b[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.at))
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.at) == Some(&c) {
            self.at += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.b.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    self.ws();
                    match self.b.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(kv));
                        }
                        _ => return self.err("expected ',' or '}'"),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.b.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return self.err("expected ',' or ']'"),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.b[self.at..].starts_with(b"true") => {
                self.at += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.b[self.at..].starts_with(b"false") => {
                self.at += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.b[self.at..].starts_with(b"null") => {
                self.at += 4;
                Ok(Json::Null)
            }
            Some(c) if *c == b'-' || c.is_ascii_digit() => {
                let start = self.at;
                while self.at < self.b.len()
                    && matches!(
                        self.b[self.at],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.b[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            _ => self.err("expected a value"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.ws();
        if self.b.get(self.at) != Some(&b'"') {
            return self.err("expected a string");
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            match self.b.get(self.at) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| "string is not UTF-8".into());
                }
                Some(b'\\') => {
                    let esc = self.b.get(self.at + 1).copied();
                    self.at += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
                            self.at += 4;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(hex.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return self.err("bad escape"),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, costs).
    Lower,
    /// Larger is better (rates, hit ratios).
    Higher,
}

/// A metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the base median by which the metric may worsen; `None`
    /// for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// Reads the `end_to_end` and `per_layer` metric declarations of a
/// `BENCHMARK.json` document.
///
/// # Errors
///
/// Malformed JSON or a metric entry without name, unit or direction.
pub fn load_specs(bench_json: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = Json::parse(bench_json)?;
    let mut specs = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc.get(section).map(Json::arr).unwrap_or(&[]) {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::str)
                    .ok_or_else(|| format!("{section} entry without \"{k}\""))
            };
            let better = match field("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("unknown direction '{other}'")),
            };
            specs.push(MetricSpec {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                better,
                bound: m.get("bound").and_then(Json::num),
            });
        }
    }
    Ok(specs)
}

/// Reads every result line (a JSON object with a `metrics` member) of a
/// file of stored run outputs into name → value maps; other lines are
/// skipped, so whole run logs can be passed.
pub fn load_results(text: &str) -> Vec<BTreeMap<String, f64>> {
    text.lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|doc| match doc.get("metrics") {
            Some(Json::Obj(kv)) => Some(
                kv.iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.num()?)))
                    .collect(),
            ),
            _ => None,
        })
        .collect()
}

/// How one metric moved between two sets of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Metric name.
    pub name: String,
    /// Median over the base runs.
    pub base_median: f64,
    /// Median over the head runs.
    pub head_median: f64,
    /// Relative change, signed so that positive means worse.
    pub worsening: f64,
    /// Interquartile spread of the base runs, as a share of their median.
    pub base_spread: Option<f64>,
    /// The metric's bound, when it has one.
    pub bound: Option<f64>,
    /// Worse than the base by more than the bound.
    pub regressed: bool,
}

/// Compares the medians of `head` runs against `base` runs for every
/// declared metric present in both, flagging bounded metrics that got
/// worse by more than their bound.
pub fn compare(
    specs: &[MetricSpec],
    base: &[BTreeMap<String, f64>],
    head: &[BTreeMap<String, f64>],
) -> Vec<Finding> {
    let values = |runs: &[BTreeMap<String, f64>], name: &str| -> Vec<f64> {
        runs.iter().filter_map(|r| r.get(name).copied()).collect()
    };
    specs
        .iter()
        .filter_map(|s| {
            let (b, h) = (values(base, &s.name), values(head, &s.name));
            if b.is_empty() || h.is_empty() {
                return None;
            }
            let (bm, hm) = (median(&b), median(&h));
            let change = (hm - bm) / bm.abs();
            let worsening = match s.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            Some(Finding {
                name: s.name.clone(),
                base_median: bm,
                head_median: hm,
                worsening,
                base_spread: spread(&b),
                bound: s.bound,
                regressed: s.bound.is_some_and(|bound| worsening > bound),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50));
        assert_eq!(quantile(&mut v, 0.99), Some(99));
        assert_eq!(quantile(&mut v, 0.0), Some(1));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn windows_split_by_completion_order() {
        let mut samples: Vec<Sample> = (1..=8)
            .rev()
            .map(|i| Sample {
                end_ns: i * 1_000_000,
                latency_ns: i * 10,
                checks: 8,
            })
            .collect();
        let w = windows(&mut samples, 2);
        assert_eq!(w.len(), 2);
        // 4 ops of 8 checks in each 4 ms window.
        assert!((w[0].checks_per_s - 8000.0).abs() < 1e-6);
        assert!((w[1].checks_per_s - 8000.0).abs() < 1e-6);
        assert_eq!((w[0].p50_ns, w[0].p99_ns), (20, 40));
        assert_eq!((w[1].p50_ns, w[1].p99_ns), (60, 80));
        assert!(windows(&mut [], 4).is_empty());
    }

    #[test]
    fn result_json_round_trips() {
        let mut r = RunResult {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("latency_ms", 1.2034, "ms");
        r.push("setup_s", 0.8127, "s");
        let line = r.to_json().unwrap();
        let parsed = load_results(&line);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0]["latency_ms"], 1.2034);
        assert_eq!(
            Json::parse(&line).unwrap().get("correct"),
            Some(&Json::Bool(true))
        );
        r.push("bad", f64::NAN, "s");
        assert!(r.to_json().is_err());
    }

    #[test]
    fn compare_flags_only_worsening_beyond_bound() {
        let specs = load_specs(
            r#"{"end_to_end": [
                {"name": "lat", "unit": "us", "better": "lower", "bound": 0.1},
                {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}],
              "per_layer": [{"name": "x", "unit": "ns", "better": "lower"}]}"#,
        )
        .unwrap();
        assert_eq!(specs.len(), 3);
        let run = |lat: f64, rate: f64, x: f64| {
            BTreeMap::from([
                ("lat".to_string(), lat),
                ("rate".to_string(), rate),
                ("x".to_string(), x),
            ])
        };
        let base = vec![run(100.0, 50.0, 1.0), run(102.0, 51.0, 1.0)];
        let head = vec![run(125.0, 52.0, 9.0), run(126.0, 53.0, 9.0)];
        let f = compare(&specs, &base, &head);
        assert!(f[0].regressed, "latency up 24% against a 10% bound");
        assert!(!f[1].regressed, "throughput went up");
        assert!(!f[2].regressed, "per-layer metrics have no bound");
        assert!(f[2].worsening > 1.0);
    }
}
