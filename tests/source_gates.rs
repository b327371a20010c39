//! Source gates: deleted paths stay deleted, hot paths stay off the allocator, networked code
//! never panics. A table of grep -E style rows, then gates that read structure.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use Skip::*;

/// Path (relative to the repository root, `/`-separated) → contents.
type Tree = BTreeMap<String, String>;

/// A gate: `deny` pairs patterns with the paths they scan (space-separated
/// globs, `*` a path component or its prefix, `!glob` exempt; the pattern
/// `""` refuses each file), `skip` holds exemptions, `most` the hits it
/// tolerates, and `bad` a line it must flag at the top of its file.
struct Row {
    why: &'static str,
    deny: &'static [(&'static str, &'static str)],
    skip: &'static [Skip],
    most: usize,
    bad: (&'static str, &'static str),
}

/// What a row leaves unscanned.
#[derive(PartialEq)]
enum Skip {
    Comments,            // lines whose first non-blank characters are `//`
    Tests,               // all from a line starting `mod tests` on
    FnNew,               // from a `fn new(` line to the next line that is `    }`
    Line(&'static str),  // lines holding the text
    Strip(&'static str), // the text, removed before matching
}

const ROW: Row = Row { why: "", deny: &[], skip: &[], most: 0, bad: ("", "") };
const ALL: &str = "crates tests examples";

#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row { why: "library crates log through swt-obs, not stdout or stderr (DESIGN.md §8)",
        deny: &[("println!|eprintln!", "crates/*/src !crates/*/src/bin !crates/obs/src/log.rs \
                  !crates/bench/src/lib.rs !crates/experiments/src/main.rs")],
        bad: ("crates/nas/src/runner.rs", r#"println!("candidate {id}");"#), ..ROW },
    Row { why: "fnv1a( hashes headers, never a payload (§9 The payload checksum)",
        deny: &[(r"fnv1a\(", "crates/checkpoint/src crates/ckpt-server/src")],
        skip: &[Line("fn fnv1a("), Line("fnv1a(header"), Line("fnv1a(&header")],
        bad: ("crates/checkpoint/src/format.rs", "let sum = fnv1a(&payload);"), ..ROW },
    Row { why: "cache residency follows the watermark: no LRU, no shards, no raw-store trait (§9)",
        deny: &[("RawCheckpointStore|last_used|SHARDS", "crates/checkpoint/src")],
        bad: ("crates/checkpoint/src/cache.rs", "    last_used: Instant,"), ..ROW },
    Row { why: "no provider_store, server cache or --cache-bytes (§9 The provider cache)",
        deny: &[("provider_store", ALL), ("cache_bytes|resident_bytes", "crates/ckpt-server/src"),
                ("--cache-bytes", "crates/swt/src")], bad: ("crates/ckpt-server/src/server.rs", "    pub cache_bytes: u64,"), ..ROW },
    Row { why: "one read per store, no cargo bench, one ckpt-server binary (§9 One read per provider)",
        deny: &[("SeekFrom|open_indexed|partial_read", "crates/checkpoint/src"), ("fn synthesized|::synthesized|prune_except", ALL),
                (r"\[\[bench\]\]|bench_ckpt", "crates/bench/Cargo.toml"), (r"\[\[bin\]\]", "crates/ckpt-server/Cargo.toml"),
                ("", "crates/bench/benches crates/ckpt-server/src/bin crates/ckpt-server/src/main.rs")],
        bad: ("crates/checkpoint/src/store.rs", "file.seek(SeekFrom::Start(offset))?;"), ..ROW },
    Row { why: "one checkpoint layout: no temp file, no rename (§9 The segment log)",
        deny: &[(r"write_atomic|TMP_SEQ|\.tmp\b|rename\(", "crates/checkpoint/src")],
        bad: ("crates/checkpoint/src/store.rs", "std::fs::rename(&tmp, &path)?;"), ..ROW },
    Row { why: "one way to evaluate: no rungs, pre-filter, stop reasons, fast tau or batching (§10)",
        deny: &[(concat!("FidelityConfig|StopReason|MAX_RUNGS|zero_cost_score|prefilter|kendall_tau_fast|",
                 r"BatchEval|BatchedEval|auto_batch|batch_eval|eval\.batch|bench_batch"), ALL)],
        bad: ("crates/nas/src/runner.rs", "let rungs = FidelityConfig::default();"), ..ROW },
    Row { why: "one fit per top model, its early stop read off its curve, no wall cut (§4 fig8)",
        deny: &[(r"cutoff_secs|\.early_stopped\b|\bearly_stopped *:", ALL)],
        bad: ("crates/nn/src/trainer.rs", "    pub early_stopped: bool,"), ..ROW },
    Row { why: "a replay of measured costs, and a failed save is an error (§4 Fig. 10's replay)",
        deny: &[(r#"paper_train_secs|scale_factor|expect\("checkpoint save failed"\)"#, "crates tests examples scripts")],
        bad: ("crates/cluster/src/lib.rs", "let t = cost * scale_factor;"), ..ROW },
    Row { why: "one worker snapshot: no Stats frame, slot ring or report read-back (§10, §8.1)",
        deny: &[(concat!("WorkerMetrics|CounterSnap|HistSnap|GaugeSnap|Msg::Stats|fold_metrics|SpanTotalRow|",
                 r"WireEvent|MAX_TELEMETRY_NAMES|drain_since|struct Drain\b"), ALL),
                ("WORKER_SLOTS|slot_for|Vec<Mutex<", "crates/obs/src/timeline.rs"),
                (r#"pub dropped_events|"dropped_events""#, "crates/dist/src/live.rs crates/swt/src/bin/swt.rs"),
                ("fn from_json|fn read_json", "crates/obs/src/report.rs")],
        bad: ("crates/dist/src/wire.rs", "    Stats(WorkerMetrics),"), ..ROW },
    Row { why: "one run trace, written at run end: no /trace route, no span deltas (§8.3)",
        deny: &[(r#"RegistrySource|process_trace_json|prev_spans|span_delta_secs|"/trace"\s*=>|"/trace"\s*\|"#, ALL)],
        bad: ("crates/obs/src/serve.rs", r#"        "/trace" => self.trace(),"#), ..ROW },
    Row { why: "a ServeSource serves no trace: LiveRunView's own pub fn feeds --chrome-trace (§8.3)",
        deny: &[("fn trace_json", ALL)], skip: &[Line("pub fn trace_json")],
        bad: ("crates/obs/src/serve.rs", "    fn trace_json(&self) -> String;"), ..ROW },
    Row { why: "no test hooks in the coordinator: kills and joins come from outside (§10 Elastic joins)",
        deny: &[("KillPlan|JoinPlan|kill_worker_after|join_after|maybe_inject|spawn_and_admit|Unslotted|\
                  run_nas_dist_with_stats", ALL)],
        bad: ("crates/dist/src/coordinator.rs", "    kill_worker_after: Option<usize>,"), ..ROW },
    Row { why: "one evaluator constructor, one store spelling, no clamped counts (§10 Backend split)",
        deny: &[(r"with_namespace|threads\.max\(1\)", ALL), ("store_dir|store_url", "crates/dist/src/wire.rs")],
        bad: ("crates/nas/src/evaluator.rs", "pub fn with_namespace(mut self, ns: &str) -> Self {"), ..ROW },
    Row { why: "no function takes more arguments than clippy allows: group them, as the kernels do (§7)",
        deny: &[("too_many_arguments", ALL)],
        bad: ("crates/tensor/src/bcast.rs", "#[allow(clippy::too_many_arguments)]"), ..ROW },
    Row { why: "one Evaluator literal: Evaluator::new builds them all (§10 Backend split)", most: 1,
        deny: &[(r"\bEvaluator \{", ALL)], skip: &[Line("struct Evaluator {"), Line("impl Evaluator {")],
        bad: ("crates/nas/src/runner.rs", "let e = Evaluator { problem, space, store, spec, live_from: 0 };") },
    Row { why: "one convolution and one max-pool for both ranks (§7)",
        deny: &[(concat!(r"\bconv1d_forward|\bconv1d_backward|\bmaxpool1d_forward|\bmaxpool1d_backward|",
                 "Conv1DLayer|Conv2DLayer|MaxPool1DLayer|MaxPool2DLayer"), ALL)],
        bad: ("crates/nn/src/layers/conv.rs", "pub struct Conv1DLayer {"), ..ROW },
    Row { why: "a layer writes its weight gradient in place; the optimizers read it as 0.0 + g (§7)",
        deny: &[("set_gradient", ALL)],
        bad: ("crates/nn/src/layers/dense.rs", "set_gradient(&mut self.d_kernel, &dk);"), ..ROW },
    Row { why: "Adam's arithmetic is swt_tensor::adam_update: swt-nn divides by no bias correction (§7)",
        deny: &[(r"/\s*bc1|/\s*bc2", "crates/nn")], skip: &[Comments],
        bad: ("crates/nn/src/optimizer.rs", "let mhat = md[i] / bc1;"), ..ROW },
    Row { why: "masks come from Rng::fill_mask, not a draw per element (§7 The step outside the GEMMs)",
        deny: &[(r"rng\.chance\(", "crates/nn/src/layers/*.rs")], skip: &[Tests],
        bad: ("crates/nn/src/layers/misc.rs", "let keep = rng.chance(p);"), ..ROW },
    Row { why: "kernel and layer hot paths draw from the Workspace; mark a cold path `alloc-gate: allow` (§7)",
        deny: &[(concat!(r"vec!\[[^]]*;|Vec::new|Vec::with_capacity|Tensor::zeros|Tensor::ones|Tensor::full|",
                 r"\.to_vec\(\)|\.clone\(\)"), "crates/tensor/src/matmul.rs crates/tensor/src/bcast.rs \
                 crates/tensor/src/conv2d.rs crates/tensor/src/pool.rs crates/nn/src/layers/*.rs")],
        skip: &[Tests, FnNew, Comments, Line("alloc-gate: allow"), Strip("shape().clone()"), Strip("shape.clone()")],
        bad: ("crates/nn/src/layers/dense.rs", "let out = Tensor::zeros([n, units]);"), ..ROW },
    Row { why: "no process-wide switch: per-thread budgets, the scalar kernel an env var (§7)",
        deny: &[(concat!(r"set_max_threads|force_scalar_kernel|\bFORCE_SCALAR\b|BUDGET_TESTS|\bMAX_THREADS\b|",
                 "set_jsonl_path|SWT_LOG_JSON"), ALL)],
        bad: ("crates/tensor/src/parallel.rs", "static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);"), ..ROW },
    Row { why: "networked code degrades with errors, never panics (§10 Failure model)",
        deny: &[(r"\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|todo!\(|unimplemented!\(", "crates/dist/src \
                 crates/obs/src/serve.rs crates/obs/src/wire.rs crates/wire/src crates/ckpt-server/src")],
        bad: ("crates/wire/src/lib.rs", "let n = u32::decode(r).unwrap();"), ..ROW },
    Row { why: "one experiment driver: no per-figure binary, report or trace_stats (§4)",
        deny: &[("", "crates/experiments/src/bin crates/experiments/src/bin.rs"),
                (r"\[\[bin\]\]", "crates/experiments/Cargo.toml"), (r#"trace_stats|"report"|fn report\b"#, "crates/experiments")],
        bad: ("crates/experiments/src/main.rs", r#"        "report" => report(&ctx),"#), ..ROW },
    Row { why: "one codec: the byte format lives in swt-wire, protocols only declare frames (§14)",
        deny: &[(r"to_le_bytes|from_le_bytes|at_end\(", "crates/dist/src/wire.rs crates/ckpt-server/src/proto.rs \
                 crates/obs/src/wire.rs"), (r"struct Task\b|TaskResult|Code<|byte_codes!", "crates/dist/src"),
                (r"impl\b.*\bWire for\b", "crates tests examples !crates/wire/src !crates/obs/src/wire.rs")],
        bad: ("crates/dist/src/wire.rs", "buf.extend_from_slice(&id.to_le_bytes());"), ..ROW },
    Row { why: "one store read: GetRaw is the wire's only read, and there is no fifth store (§12)",
        deny: &[("GetIndex|GetTensors|IndexResp|RangeRow|QuantizedStore", ALL)],
        bad: ("crates/ckpt-server/src/proto.rs", "    GetIndex { id: String },"), ..ROW },
];

/// Gates that read structure, each with an edit of one file it must catch.
type Gate = fn(&Tree) -> Vec<String>;
#[rustfmt::skip]
const SHAPES: &[(Gate, &str, &str, &str)] = &[
    (store_impls, "crates/ckpt-server/src/client.rs", "impl CheckpointStore for RemoteStore {",
        "impl CheckpointStore for RemoteStore {\n    fn exists(&self, _: &str) -> bool {\n        true\n    }"),
    (engine, "crates/tensor/src/matmul.rs", "|c| conv2d::forward(&g, a.data(), b.data(), c, ws),", "|c| gemm([m, n, k], a, b, c, ws),"),
    (provider_cache, "crates/dist/src/worker.rs", "None => Arc::new(DirStore::new(&run.store)",
        "None => Arc::new(CachedStore::new(DirStore::new(&run.store)"),
    (conv1d_tests_only, "crates/tensor/src/lib.rs", "#[cfg(test)]\nmod conv1d;", "mod conv1d;"),
];

/// A store requires five methods; only one that holds the bytes lends them by
/// `read`, and only `Arc<T>` forwards derived reads (§9 One read per provider).
fn store_impls(t: &Tree) -> Vec<String> {
    let (mut out, derived) = (vec![], ["load", "load_index", "load_tensors", "exists"]);
    for (path, text) in files(t, "crates/*/src") {
        let mut imp = "";
        for (n, line) in text.lines().enumerate().take_while(|(_, l)| !is_tests(l)) {
            let ty = line.strip_prefix("impl").and_then(|l| l.split_once(" CheckpointStore for "));
            imp = ty.map_or(imp, |(_, ty)| ty.split([' ', '<', '{']).next().unwrap());
            imp = if line.starts_with('}') { "" } else { imp };
            let f = line.strip_prefix("    fn ").filter(|_| !imp.is_empty()).unwrap_or_default();
            let f = f.split(|c: char| !c.is_ascii_lowercase() && c != '_').next().unwrap();
            let holder = ["DirStore", "MemStore", "CachedStore", "Arc"].contains(&imp);
            if imp != "Arc" && derived.contains(&f) || f == "read" && !holder {
                out.push(format!("{path}:{}: {imp} overrides `{f}`", n + 1));
            }
        }
    }
    let store = t["crates/checkpoint/src/store.rs"].lines();
    let required: BTreeSet<_> = (store.skip_while(|l| !l.starts_with("pub trait CheckpointStore")))
        .take_while(|l| !l.starts_with('}'))
        .filter_map(|l| l.strip_prefix("    fn ")?.strip_suffix(';')?.split(['(', '<']).next())
        .collect();
    if required != BTreeSet::from(["delete", "list", "load_raw", "save", "size_bytes"]) {
        out.push(format!("CheckpointStore requires {required:?}"));
    }
    out
}

/// `x·w` and `xᵀ·dy` run on conv2d's broadcast-FMA tile; only `matmul_bt_ws`
/// reaches the packed GEMM, and each GEMM function has one caller (§7).
fn engine(t: &Tree) -> Vec<String> {
    let g = "gemm_with_kernel";
    let only =
        [("gemm", "matmul_bt_ws"), (g, "gemm"), ("pack_a", g), ("pack_b", g), ("block_kernel", g)];
    let ident = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    let (mut out, mut fwd, mut dw) = (vec![], false, false);
    for (path, text) in files(t, "crates/tensor/src/*.rs") {
        let (mut f, code) = ("", text.lines().enumerate().take_while(|(_, l)| !is_tests(l)));
        for (n, line) in code.filter(|(_, l)| !l.trim_start().starts_with("//")) {
            let item =
                line.strip_prefix("pub ").or(line.strip_prefix("pub(crate) ")).unwrap_or(line);
            let mut body = line;
            if let Some(rest) = item.strip_prefix("unsafe ").unwrap_or(item).strip_prefix("fn ") {
                (f, body) = rest.split_at(rest.find(|c| !ident(c)).unwrap_or(rest.len()));
            }
            let calls = |g: &str| body.match_indices(g).any(|(i, _)| !body[..i].ends_with(ident));
            for (g, c) in only.into_iter().filter(|&(g, c)| f != c && calls(&format!("{g}("))) {
                out.push(format!("{path}:{}: {g}( in {f}(), not {c}()", n + 1));
            }
            fwd |= f == "matmul_ws" && line.contains("conv2d::forward(");
            dw |= f == "matmul_at_into" && line.contains("conv2d::backward_kernel(");
        }
    }
    out.extend((!fwd || !dw).then(|| "matmul_ws or matmul_at_into left conv2d's tile".into()));
    out
}

/// The one `CachedStore` outside swt-checkpoint fronts a dist worker's remote
/// store, in its `Some(addr) =>` block however long (§9 The provider cache).
fn provider_cache(t: &Tree) -> Vec<String> {
    let sites = grep(t, "CachedStore::new", "crates/*/src examples !crates/checkpoint", &[]);
    let lines: Vec<_> = t["crates/dist/src/worker.rs"].lines().collect();
    let arm = lines.iter().position(|l| l.trim_start().starts_with("Some(addr) =>"));
    let arm = arm.unwrap_or(lines.len() - 1);
    let end = format!("{}}}", &lines[arm][..lines[arm].len() - lines[arm].trim_start().len()]);
    let mut block = (arm + 1..lines.len()).take_while(|&i| !lines[i].starts_with(&end));
    if block.any(|i| sites == [format!("crates/dist/src/worker.rs:{}: {}", i + 1, lines[i])]) {
        return vec![];
    }
    sites.into_iter().chain(["not one CachedStore::new, in the tcp arm".into()]).collect()
}

/// A rank-3 input is the one-row image: `conv1d.rs` holds tests only (§7).
fn conv1d_tests_only(t: &Tree) -> Vec<String> {
    let test_only = t["crates/tensor/src/lib.rs"].contains("\n#[cfg(test)]\nmod conv1d;\n");
    let bad = t.contains_key("crates/tensor/src/conv1d.rs") && !test_only;
    Vec::from_iter(bad.then(|| "crates/tensor/src/conv1d.rs is not a #[cfg(test)] module".into()))
}

fn is_tests(line: &str) -> bool {
    line.starts_with("mod tests") || line.starts_with("pub(crate) mod tests")
}

/// The files of `t` under `scan`'s globs and under none of its `!` ones.
fn files<'t>(t: &'t Tree, scan: &'t str) -> impl Iterator<Item = (&'t String, &'t String)> {
    let part = |(g, p): (&str, &str)| g.strip_prefix('*').map_or(g == p, |s| p.ends_with(s));
    let under = move |g: &str, p: &str| g.split('/').zip(p.split('/').chain([""; 9])).all(part);
    let (not, yes): (Vec<_>, Vec<_>) = scan.split_whitespace().partition(|g| g.starts_with('!'));
    t.iter().filter(move |(p, _)| {
        yes.iter().any(|g| under(g, p)) && !not.iter().any(|g| under(&g[1..], p))
    })
}

/// Each line under `scan` that `pat` matches once `skip` is applied, as
/// `path:line: text`; the pattern `""` matches each file.
fn grep(t: &Tree, pat: &str, scan: &str, skip: &[Skip]) -> Vec<String> {
    let (mut alts, mut rest, mut out) = (vec![], pat, vec![]);
    while let Some(i) = rest.match_indices('|').map(|m| m.0).find(|&i| !rest[..i].ends_with('\\')) {
        (alts, rest) = ([alts, vec![&rest[..i]]].concat(), &rest[i + 1..]);
    }
    alts.push(rest);
    for (path, text) in files(t, scan) {
        let mut text = Cow::from(text);
        for m in skip.iter().filter_map(|s| if let Strip(m) = s { Some(m) } else { None }) {
            text = text.replace(m, "").into();
        }
        if pat.is_empty() || !alts.iter().any(|a| text.contains(literal(a))) {
            out.extend(pat.is_empty().then(|| format!("{path}: a file that must not exist")));
            continue;
        }
        let (mut ctor, tests) = (false, skip.contains(&Tests));
        for (n, line) in text.lines().enumerate().take_while(|(_, l)| !(tests && is_tests(l))) {
            if skip.contains(&FnNew) && (ctor || line.contains("fn new(")) {
                ctor = line != "    }";
                continue;
            }
            let comment = skip.contains(&Comments) && line.trim_start().starts_with("//");
            let marked = skip.iter().any(|s| matches!(s, Line(m) if line.contains(m)));
            let hit = |a: &&str| (0..=line.len()).any(|i| here(a.as_bytes(), line.as_bytes(), i));
            if !comment && !marked && alts.iter().any(hit) {
                out.push(format!("{path}:{}: {line}", n + 1));
            }
        }
    }
    out
}

/// A row's hits on `t`, if there are more than its `most`.
fn check(row: &Row, t: &Tree) -> Vec<String> {
    let hits: Vec<_> = row.deny.iter().flat_map(|(p, scan)| grep(t, p, scan, row.skip)).collect();
    Some(hits).filter(|hits| hits.len() > row.most).unwrap_or_default()
}

/// Text each match of `alt` holds: up to a special character, less a starred one.
fn literal(alt: &str) -> &str {
    let head = alt.strip_prefix(r"\b").or(alt.strip_prefix('^')).unwrap_or(alt);
    let end = head.find(|c| r"\.[*^".contains(c)).unwrap_or(head.len());
    &head[..end - head[end..].starts_with('*') as usize]
}

/// Whether the grep -E style `p` matches `s` from byte `i`: text, `^`,
/// `\b`, `.`, `\s`, `[^c]`, `*` after any of these, and `\c` for `c`.
fn here(p: &[u8], s: &[u8], i: usize) -> bool {
    let len = match p {
        [] => return true,
        [b'\\', ..] => 2,
        [b'[', ..] => 4,
        _ => 1,
    };
    let star = p.get(len) == Some(&b'*');
    let (atom, rest) = (&p[..len], &p[len + star as usize..]);
    let word = |j: usize| s.get(j).is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_');
    let one = |j: usize| {
        s.get(j).is_some_and(|c| match atom {
            b"." => true,
            br"\s" => c.is_ascii_whitespace(),
            [b'[', b'^', x, b']'] => c != x,
            [b'\\', x] | [x] => c == x,
            _ => false,
        })
    };
    match atom {
        _ if star => (i..=s.len()).take_while(|&j| j == i || one(j - 1)).any(|j| here(rest, s, j)),
        b"^" => i == 0 && here(rest, s, i),
        br"\b" => (i > 0 && word(i - 1)) != word(i) && here(rest, s, i),
        _ => one(i) && here(rest, s, i + 1),
    }
}

/// Adds the files under `dir` to `t`, this one aside, and each directory as empty.
fn walk(dir: &str, t: &mut Tree) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../");
    for entry in std::fs::read_dir(root.to_owned() + dir).expect("a directory") {
        let entry = entry.expect("a directory entry");
        let path = format!("{dir}/{}", entry.file_name().to_string_lossy());
        if entry.file_type().expect("a file type").is_dir() {
            walk(&path, t);
            t.insert(path, String::new());
        } else if path != "tests/source_gates.rs" {
            let bytes = std::fs::read(root.to_owned() + &path).expect("a readable file");
            t.insert(path, String::from_utf8_lossy(&bytes).into());
        }
    }
}

/// The files under `crates`, `tests`, `examples` and `scripts`, read once.
fn tree() -> &'static Tree {
    static TREE: OnceLock<Tree> = OnceLock::new();
    let dirs = ["crates", "tests", "examples", "scripts"];
    TREE.get_or_init(|| dirs.iter().fold(Tree::new(), |mut t, dir| (walk(dir, &mut t), t).1))
}

#[test]
fn every_gate_holds_on_the_tree() {
    let rows =
        ROWS.iter().flat_map(|r| check(r, tree()).into_iter().map(|h| format!("{}: {h}", r.why)));
    let failed: Vec<_> = rows.chain(SHAPES.iter().flat_map(|(gate, ..)| gate(tree()))).collect();
    assert!(failed.is_empty(), "source gates failed:\n{}", failed.join("\n"));
}

#[test]
fn every_gate_flags_its_own_violation() {
    let edit = |path: &str, from: &str, to: &str| {
        let mut t = tree().clone();
        assert!(t[path].contains(from), "{path} no longer holds {from}");
        t.insert(path.into(), t[path].replacen(from, to, 1));
        t
    };
    for row @ Row { why, bad: (path, line), .. } in ROWS {
        let hits = check(row, &edit(path, "", &format!("{line}\n")));
        assert!(hits.contains(&format!("{path}:1: {line}")), "{why}: {line} not in {hits:?}");
    }
    for (gate, path, from, to) in SHAPES {
        assert!(!gate(&edit(path, from, to)).is_empty(), "{path}: the gate misses {to}");
    }
}

#[test]
fn the_scanner_keeps_each_exemption() {
    let text = "// a.clone()\nfn new() -> Self {\n    let v = b.clone();\n    }\nlet w = c.to_vec(); \
                // alloc-gate: allow\nlet s = x.shape().clone();\nlet hit = d.clone();\nmod tests {\nf.clone()";
    let all = [Tests, FnNew, Comments, Line("alloc-gate: allow"), Strip("shape().clone()")];
    #[rustfmt::skip]
    let cases: [(&str, &str, &[Skip], usize); 13] = [
        (r"\.clone\(\)|\.to_vec\(\)", text, &all, 1), (r"\.clone\(\)|\.to_vec\(\)", text, &[], 6),
        (r"\bFORCE_SCALAR\b", "SWT_FORCE_SCALAR_KERNEL=1 cargo test", &[], 0), (r"\bFORCE_SCALAR\b", "FORCE_SCALAR:", &[], 1),
        (r"\bEvaluator \{", "(Evaluator { store })", &[], 1), (r"\bEvaluator \{", "BatchEvaluator {", &[], 0),
        (r"vec!\[[^]]*;", "vec![0.0; n]", &[], 1), (r"vec!\[[^]]*;", "vec![dx];", &[], 0), (r"\.tmp\b", "a.tmpl", &[], 0),
        (r#""/trace"\s*=>|x"#, r#""/trace"   => y"#, &[], 1), (r"impl\b.*\bWire for\b", "impl<T> Wire for T", &[], 1),
        (r"/\s*bc1|/\s*bc2", "v[i] /bc2", &[], 1), (r"/\s*bc1|/\s*bc2", "1.0 / f64::from(bc1)", &[], 0),
    ];
    for (pat, text, skip, hits) in cases {
        let found = grep(&Tree::from([("f".into(), text.into())]), pat, "f", skip);
        assert_eq!(found.len(), hits, "{pat} on {text}: {found:?}");
    }
}
