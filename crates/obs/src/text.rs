//! Prometheus text-format exposition: the three family writers
//! [`render_prometheus`](crate::render_prometheus) is generated over,
//! plus a tiny checker that validates the grammar and histogram
//! invariants — used by the CI `obs-gate` to prove the dump parses
//! without pulling in a real Prometheus client.

use crate::metrics::{bucket_upper_bound, Histogram};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One counter or gauge family: a single bare sample when `label` is
/// `None`, else one `{label="i"}` sample per value — and nothing at
/// all for a labelled family with no live slot.
fn scalars(
    out: &mut String,
    name: &str,
    help: &str,
    ty: &str,
    label: Option<&str>,
    values: &[u64],
) {
    if values.is_empty() {
        return;
    }
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {ty}");
    for (i, v) in values.iter().enumerate() {
        let _ = match label {
            Some(label) => writeln!(out, "{name}{{{label}=\"{i}\"}} {v}"),
            None => writeln!(out, "{name} {v}"),
        };
    }
}

/// A counter family; `stem` gains the conventional `_total`.
pub(crate) fn counter(
    out: &mut String,
    stem: &str,
    help: &str,
    label: Option<&str>,
    values: &[u64],
) {
    scalars(
        out,
        &format!("{stem}_total"),
        help,
        "counter",
        label,
        values,
    );
}

/// A gauge family.
pub(crate) fn gauge(out: &mut String, name: &str, help: &str, label: Option<&str>, values: &[u64]) {
    scalars(out, name, help, "gauge", label, values);
}

/// A histogram family: cumulative occupied buckets, `+Inf`, sum, count.
pub(crate) fn histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let buckets = h.bucket_counts();
    let last = buckets.iter().rposition(|&n| n != 0).unwrap_or(0);
    let mut cum = 0u64;
    for (i, &n) in buckets.iter().enumerate().take(last + 1) {
        cum += n;
        if n != 0 || i == last {
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cum}",
                bucket_upper_bound(i)
            );
        }
    }
    let total: u64 = buckets.iter().sum();
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {total}");
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    // `s` is the text between `{` and `}`: k="v",k2="v2"
    let mut out = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label missing '='")?;
        let key = &rest[..eq];
        if !valid_metric_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err("label value not quoted".into());
        }
        let close = rest[1..].find('"').ok_or("unterminated label value")? + 1;
        let val = &rest[1..close];
        out.push((key.to_string(), val.to_string()));
        rest = &rest[close + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.is_empty() {
            return Err("junk after label value".into());
        }
    }
    Ok(out)
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        _ => s
            .parse::<f64>()
            .map_err(|e| format!("bad value {s:?}: {e}")),
    }
}

/// Validate a Prometheus text-format exposition: line grammar, every
/// sample belongs to a declared `# TYPE` family, and histogram families
/// satisfy their invariants (increasing `le`, cumulative counts
/// non-decreasing, `+Inf` bucket present and equal to `_count`, `_sum`
/// present). Returns the number of samples on success.
pub fn check_exposition(text: &str) -> Result<usize, String> {
    // Per-histogram-family accumulator: `le` bounds and cumulative
    // counts in order of appearance, the `_count` sample, `_sum` seen.
    #[derive(Default)]
    struct HistCheck(Vec<f64>, Vec<f64>, Option<f64>, bool);
    let mut types: HashMap<String, String> = HashMap::new();
    let mut hists: HashMap<String, HistCheck> = HashMap::new();
    let mut samples = 0usize;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let lineno = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let (Some(name), Some(ty)) = (it.next(), it.next()) else {
                    return Err(format!("line {lineno}: malformed TYPE line"));
                };
                if !valid_metric_name(name) {
                    return Err(format!("line {lineno}: bad metric name {name:?}"));
                }
                if !matches!(
                    ty,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("line {lineno}: unknown metric type {ty:?}"));
                }
                types.insert(name.to_string(), ty.to_string());
            }
            continue; // HELP and free comments
        }
        // Sample line: name[{labels}] value
        let (name_part, rest) = match line.find('{') {
            Some(brace) => {
                let close = match line.find('}') {
                    Some(c) if c > brace => c,
                    _ => return Err(format!("line {lineno}: unterminated label braces")),
                };
                (
                    (&line[..brace], Some(&line[brace + 1..close])),
                    &line[close + 1..],
                )
            }
            None => {
                let sp = match line.find(' ') {
                    Some(s) => s,
                    None => return Err(format!("line {lineno}: sample missing value")),
                };
                ((&line[..sp], None), &line[sp..])
            }
        };
        let (name, labels_txt) = name_part;
        if !valid_metric_name(name) {
            return Err(format!("line {lineno}: bad sample name {name:?}"));
        }
        let labels = match labels_txt {
            Some(t) => parse_labels(t).map_err(|e| format!("line {lineno}: {e}"))?,
            None => Vec::new(),
        };
        let value_txt = rest.trim();
        let value_txt = value_txt.split_whitespace().next().unwrap_or("");
        let value = parse_value(value_txt).map_err(|e| format!("line {lineno}: {e}"))?;
        samples += 1;
        // Resolve the family this sample belongs to.
        let family = ["_bucket", "_sum", "_count"].iter().find_map(|suf| {
            name.strip_suffix(suf)
                .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
                .map(|base| (base.to_string(), *suf))
        });
        match family {
            Some((base, "_bucket")) => {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .ok_or_else(|| format!("line {lineno}: bucket missing le"))?;
                let le_v = parse_value(&le.1).map_err(|e| format!("line {lineno}: {e}"))?;
                let entry = hists.entry(base).or_default();
                if let Some(&prev) = entry.0.last() {
                    if le_v <= prev {
                        return Err(format!(
                            "line {lineno}: le not increasing ({prev} then {le_v})"
                        ));
                    }
                }
                if let Some(&prev) = entry.1.last() {
                    if value < prev {
                        return Err(format!(
                            "line {lineno}: cumulative count decreased ({prev} to {value})"
                        ));
                    }
                }
                entry.0.push(le_v);
                entry.1.push(value);
            }
            Some((base, "_sum")) => hists.entry(base).or_default().3 = true,
            Some((base, "_count")) => hists.entry(base).or_default().2 = Some(value),
            _ => {
                let declared = types.get(name).map(String::as_str);
                if !matches!(declared, Some("counter" | "gauge" | "untyped")) {
                    return Err(format!(
                        "line {lineno}: sample {name:?} has no matching TYPE declaration"
                    ));
                }
                if declared == Some("counter") && value < 0.0 {
                    return Err(format!("line {lineno}: counter {name:?} is negative"));
                }
            }
        }
    }
    for (base, HistCheck(les, counts, count_sample, has_sum)) in &hists {
        if les.last().copied() != Some(f64::INFINITY) {
            return Err(format!("histogram {base:?}: last bucket is not +Inf"));
        }
        if !has_sum {
            return Err(format!("histogram {base:?}: missing _sum"));
        }
        let inf_count = counts.last().copied().unwrap_or(0.0);
        match count_sample {
            Some(c) if *c == inf_count => {}
            Some(c) => {
                return Err(format!(
                    "histogram {base:?}: _count {c} != +Inf bucket {inf_count}"
                ))
            }
            None => return Err(format!("histogram {base:?}: missing _count")),
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{registry, render_prometheus};

    #[test]
    fn rendered_registry_passes_checker() {
        let reg = registry();
        reg.plan_requests.add(10);
        reg.plan_latency_ns.record(1_500);
        reg.plan_latency_ns.record(90_000);
        reg.wal_flush_ns.record(40_000);
        reg.shards_live.observe_max(2);
        reg.shard_events[0].add(5);
        reg.shard_sheds[1].add(1);
        reg.classes_live.observe_max(3);
        reg.class_served[1].add(4);
        reg.class_driven[2].add(900);
        let text = render_prometheus(reg);
        let n = check_exposition(&text).expect("exposition must parse");
        assert!(n > 40, "expected plenty of samples, got {n}");
        assert!(text.contains("urpsm_plan_latency_ns_bucket"));
        assert!(text.contains("urpsm_shard_sheds_total{shard=\"1\"}"));
        assert!(text.contains("urpsm_class_served_total{class=\"1\"} 4"));
        assert!(text.contains("urpsm_class_driven_total{class=\"2\"} 900"));
    }

    #[test]
    fn checker_rejects_malformed_input() {
        assert!(check_exposition("no_type_decl 1\n").is_err());
        assert!(check_exposition("# TYPE x counter\nx -1\n").is_err());
        assert!(check_exposition("# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 3\nh_count 1\n").is_err());
        assert!(check_exposition(
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 3\nh_count 2\n"
        )
        .is_err());
        assert!(check_exposition("# TYPE x counter\nx{bad 1\n").is_err());
    }

    #[test]
    fn checker_accepts_minimal_families() {
        let ok = "# HELP g a gauge\n# TYPE g gauge\ng 42\n# TYPE c counter\nc{shard=\"3\"} 7\n# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 12\nh_count 2\n";
        assert_eq!(check_exposition(ok), Ok(6));
    }
}
