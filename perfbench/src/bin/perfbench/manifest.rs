//! The benchmark's manifest: the command, workloads and metrics that
//! `BENCHMARK.json` at the repository root lists. `--write-manifest`
//! renders it; a unit test keeps the checked-in file identical.

/// How the benchmark is started, from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 10;

/// Workload names and why each is measured.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "tg-sweep",
        "paper path: 1 client sends strategy=tg for seed-picked image targets, then repeats them; walks+SGNS+XGB dominate",
    ),
    (
        "serve-mix",
        "2 clients, warm store: 80% /score over all pairs, 10% lr recommends, 10% /stats; HTTP, routing and cache hits",
    ),
    (
        "cold-collect",
        "2 clients send /score once per pair of fresh zoos: forward pass, LogME kernel and store insert on every request",
    ),
];

/// One metric of the manifest.
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics; every workload reports all of them.
///
/// The bounds are as tight as a 2-core shared machine allows: there, the
/// speed of a whole run drifts by about ±10% from one run to the next
/// (set-up, latency and throughput move together), which puts the
/// quartile spread of ten runs at 0.05-0.18 for `p50_ms` and `rps`, and
/// allocator timing puts that of `peak_rss_mb` at up to 0.11.
pub const END_TO_END: [Def; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.2),
    e2e("p50_ms", "ms", "lower", 0.25),
    e2e("rps", "1/s", "higher", 0.25),
];

/// Per-layer metrics of the traced run; every workload reports all of
/// them.
pub const PER_LAYER: [Def; 29] = [
    layer("serve.parse_us", "us", "lower"),
    layer("serve.render_us", "us", "lower"),
    layer("serve.conn_us", "us", "lower"),
    layer("registry.route_us", "us", "lower"),
    layer("registry.build_ms", "ms", "lower"),
    layer("registry.resident_mb", "MiB", "lower"),
    layer("store.logme_hit_us", "us", "lower"),
    layer("store.hit_rate", "ratio", "higher"),
    layer("collect.forward_pass_us", "us", "lower"),
    layer("collect.logme_kernel_us", "us", "lower"),
    layer("collect.decomp_us", "us", "lower"),
    layer("collect.logme_calls", "count", "lower"),
    layer("eval.history_ms", "ms", "lower"),
    layer("eval.truth_ms", "ms", "lower"),
    layer("graph.inputs_ms", "ms", "lower"),
    layer("graph.build_ms", "ms", "lower"),
    layer("graph.node_features_ms", "ms", "lower"),
    layer("graph.nodes", "count", "lower"),
    layer("graph.edges", "count", "lower"),
    layer("embed.walks_ms", "ms", "lower"),
    layer("embed.walk_steps", "count", "lower"),
    layer("embed.sgns_ms", "ms", "lower"),
    layer("regress.features_ms", "ms", "lower"),
    layer("regress.rows", "count", "lower"),
    layer("regress.xgb_fit_ms", "ms", "lower"),
    layer("regress.xgb_predict_ms", "ms", "lower"),
    layer("regress.linear_fit_ms", "ms", "lower"),
    layer("regress.linear_predict_ms", "ms", "lower"),
    layer("ledger.coverage", "ratio", "higher"),
];

fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn defs(list: &[Def]) -> String {
    let rows: Vec<String> = list
        .iter()
        .map(|d| {
            let bound = d
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
                quoted(d.name),
                quoted(d.unit),
                quoted(d.better)
            )
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// `BENCHMARK.json` as checked in.
pub fn render() -> String {
    let command: Vec<String> = COMMAND.iter().map(|s| quoted(s)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(name),
                quoted(why)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        defs(&END_TO_END),
        defs(&PER_LAYER),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_json::JsonValue;

    #[test]
    fn checked_in_manifest_matches() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, render(), "regenerate with `--write-manifest`");
    }

    #[test]
    fn manifest_is_valid_json_within_limits() {
        let json = JsonValue::parse(&render()).expect("manifest parses");
        for key in [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        let names = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name);
        let mut seen = std::collections::HashSet::new();
        for name in names.chain(WORKLOADS.iter().map(|w| w.0)) {
            assert!(
                name.len() <= 64 && seen.insert(name),
                "bad or repeated name {name}"
            );
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.1.len() <= 200 && !w.1.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", "lower")
        );
        let max = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(max), "setup_s carries the largest bound");
    }
}
