//! Differential property suite for read paths and lent builtin arguments.
//!
//! The VM reads `root.f[i]…` by walking the root in place and cloning only
//! the leaf (`LoadPath`), and lends a builtin its first path argument
//! instead of copying it (`CheckPath`, then the leaf is moved into the
//! argument register for the call and moved back after). Both must be
//! invisible: this suite holds the VM to the tree-walking interpreter on
//! programs built around those shapes, which the shared generator
//! (`common/mod.rs`) only reaches as assignment targets.
//!
//! Generated here: paths one to three accessors deep rooted at `state`, at
//! `let` locals and at the dynamic port binding `data`, with literal and
//! local operands (negative, out of range, missing keys, string indices,
//! wrong types mid-path, the root itself); builtin calls taking such paths,
//! aliasing ones (`merge(p, p)`, `get(x, x[0])`), nested ones and ones that
//! fail while holding the lent leaf; and the group-by update
//! `state.m[k] = get(state.m, k, 0) + 1`, whose state carries over to the
//! next invocation; and updates `P[k] = get(P, k, d?) op e` of every shape
//! around the one the VM fuses into one instruction, on its fast path and
//! on each case that falls through. Compared per invocation: the result
//! (value, or error kind, message, line and column), the state and the
//! fuel left; at the end, every emission and print. Budgets of 1..400 land
//! fuel exhaustion on every burn of a walk.

use laminar_json::Value;
use laminar_oracle::Interp;
use laminar_script::{compile_script, parse_script, NullHost, VecSink, Vm};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use proptest::strategy::one_of;
use std::sync::Arc;

const PE_NAME: &str = "Gen";

/// A `[…]` operand: a literal, or a local the prelude binds (`i`, `j`:
/// ints that may be negative or out of range; `key`, `miss`: strings; `x`,
/// `state`: containers, wrong as an index), or a name that is not a local.
fn arb_operand() -> BoxedStrategy<String> {
    select(vec![
        "0", "1", "2", "7", "\"a\"", "\"k\"", "\"zz\"", "1.5", "true", "null", "-1", "i", "j", "key", "miss",
        "x", "state", "data",
    ])
    .prop_map(str::to_string)
}

/// One accessor.
fn arb_acc() -> BoxedStrategy<String> {
    prop_oneof![
        select(vec!["m", "l", "s", "n", "a", "k", "zz"]).prop_map(|f| format!(".{f}")),
        arb_operand().prop_map(|o| format!("[{o}]")),
    ]
}

/// A root and one to three accessors: two in three follow the shapes the
/// full init block, `xm`, `xl` and the data give (so most reads succeed,
/// or fail on one variant only), the rest are free. `t` is a local only
/// after a generated `let t`; before, it resolves like `data` (or fails).
fn arb_path() -> BoxedStrategy<String> {
    let shaped = select(vec![
        "state.m",
        "state.m.a",
        "state.m.k[0]",
        "state.m.k[2].a",
        "state.m[key]",
        "state.m[miss]",
        "state.m.zz.a",
        "state.l[i]",
        "state.l[1][j]",
        "state.l[2][i]",
        "state.l[3].k",
        "state.s[i]",
        "state.n",
        "xm.a",
        "xm.a[i]",
        "xm.a[2].k",
        "xm.m[key]",
        "xm[key]",
        "xl[0].a",
        "xl[2][j]",
        "xl[i]",
        "xl[1][i]",
        "data[0]",
        "data[1][j]",
        "data.a[i]",
        "data.m.a",
        "data[3].a",
        "data[i]",
    ])
    .prop_map(str::to_string);
    let free = (select(vec!["state", "state", "x", "xm", "xl", "data", "data", "t"]), vec(arb_acc(), 1..4))
        .prop_map(|(root, accs)| format!("{root}{}", accs.concat()));
    prop_oneof![shaped.clone(), shaped, free]
}

/// An expression built around paths. Two in three are reads and lending
/// calls that succeed on the full init block (so invocations get far
/// enough to lend many times and keep their state); the rest mix in every
/// path, builtins taking it (lent), calls that copy it, and bases that are
/// not paths.
fn arb_expr() -> BoxedStrategy<String> {
    let fine = select(vec![
        "state.m.a",
        "state.m.k[j]",
        "state.m[key]",
        "state.m.zz.a",
        "state.l[i]",
        "state.l[2][i]",
        "state.l[3].k",
        "xm.m[key]",
        "xl[0].a",
        "xl[2][j]",
        "get(state.m, key, 0)",
        "get(state.m.zz, key)",
        "get(xl, xl[3], state.l)",
        "get(state.l, len(state.m))",
        "len(state.m)",
        "len(state.l[2])",
        "contains(state.m, key)",
        "contains(state.l, state.l[0])",
        "str(state.m.k[j])",
        "str(data)",
        "merge(state.m, xm)",
        "merge(state.m, state.m)",
        "keys(state.m.zz)",
        "type(state.l[i])",
        "push(state.l, state.l[1])",
        "round(state.n, 1)",
    ])
    .prop_map(str::to_string);
    prop_oneof![fine.clone(), fine, arb_any_expr()]
}

fn arb_any_expr() -> BoxedStrategy<String> {
    let p = arb_path();
    let o = arb_operand();
    prop_oneof![
        p.clone(),
        p.clone(),
        (p.clone(), o.clone()).prop_map(|(p, o)| format!("get({p}, {o}, 0)")),
        (p.clone(), o.clone()).prop_map(|(p, o)| format!("get({p}, {o})")),
        (select(vec!["len", "str", "type", "keys", "abs", "sum", "upper", "math.sqrt"]), p.clone())
            .prop_map(|(f, p)| format!("{f}({p})")),
        (select(vec!["len", "str", "type", "keys"]), select(vec!["state", "x", "data", "t"]))
            .prop_map(|(f, r)| format!("{f}({r})")),
        p.clone().prop_map(|p| format!("contains({p}, \"k\")")),
        (p.clone(), o.clone()).prop_map(|(p, o)| format!("contains({p}, {o})")),
        p.clone().prop_map(|p| format!("merge({p}, {p})")),
        (p.clone(), p.clone()).prop_map(|(a, b)| format!("merge({a}, {b})")),
        p.clone().prop_map(|p| format!("push({p}, {p})")),
        select(vec!["get(x, x[0])", "get(state, state.m)", "get(data, data[0], data)", "str(x[0])"])
            .prop_map(str::to_string),
        p.clone().prop_map(|p| format!("get({p}, len({p}), {p})")),
        (p.clone(), p.clone()).prop_map(|(a, b)| format!("get(1, {a}, {b})")),
        p.clone().prop_map(|p| format!("round({p}, 2)")),
        p.clone().prop_map(|p| format!("f1({p})")),
        p.clone().prop_map(|p| format!("vo.fetch({p})")),
        (p.clone(), p.clone()).prop_map(|(a, b)| format!("({a} == {b})")),
        p.clone().prop_map(|p| format!("({p} + 1)")),
        o.clone().prop_map(|o| format!("[1, [2, \"ab\"]][{o}]")),
        p.clone().prop_map(|p| format!("f1({p}).a")),
        o.prop_map(|o| format!("{{\"a\": [5, 6]}}.a[{o}]")),
    ]
}

fn arb_stmt() -> BoxedStrategy<String> {
    let e = arb_expr();
    let target = select(vec![
        "state.m[key]",
        "state.m[miss]",
        "state.l[i]",
        "state.l[0]",
        "state.m.k[j]",
        "state.n",
        "x.a",
        "x[i]",
        "data[0]",
        "data.k",
    ]);
    one_of(vec![
        e.clone().prop_map(|e| format!("emit({e});")).boxed(),
        e.clone().prop_map(|e| format!("print(\"v\", {e});")).boxed(),
        e.clone().prop_map(|e| format!("let t = {e};")).boxed(),
        e.clone().prop_map(|e| format!("{e};")).boxed(),
        (target, e.clone()).prop_map(|(t, e)| format!("{t} = {e};")).boxed(),
        select(vec!["key", "miss", "i"])
            .prop_map(|k| format!("state.m[{k}] = get(state.m, {k}, 0) + 1;"))
            .boxed(),
        (arb_path(), e.clone())
            .prop_map(|(p, e)| format!("for v in {p} {{ print(\"it\", v, {e}); }}"))
            .boxed(),
        (e.clone(), e).prop_map(|(c, e)| format!("if {c} {{ emit({e}); }}")).boxed(),
    ])
}

/// The `let` roots: `xm` and `xl` always hold these, `x` any of
/// [`arb_x`].
const XM: &str = "{\"a\": [1, \"bc\", {\"k\": 2}], \"k\": \"k\", \"m\": {\"a\": 1}}";
const XL: &str = "[{\"a\": 1}, \"héllo\", [3, -4], -2]";

/// The `let` root `x`: a container, a string, a scalar or null.
fn arb_x() -> BoxedStrategy<String> {
    select(vec![XM, XL, "\"héllo\"", "5", "null"]).prop_map(str::to_string)
}

fn arb_script() -> BoxedStrategy<String> {
    let full = "init { state.m = {\"a\": 1, \"k\": [1, \"xy\", {\"a\": 2}], \"zz\": {\"a\": \"héllo\"}}; \
                state.l = [3, [4, 5], \"héllo\", {\"k\": 6}]; state.s = \"héllo\"; state.n = 7; }";
    let init = select(vec![full, full, full, "", "init { state.m = {}; state.l = []; }"]);
    (
        init,
        arb_x(),
        select(vec![0, 1, 2, -1, -2, 5]),
        select(vec![0, 1, -1, 4]),
        select(vec!["\"a\"", "\"k\"", "\"zz\"", "\"b\""]),
        vec(arb_stmt(), 1..5),
    )
        .prop_map(|(init, x, i, j, key, body)| {
            format!(
                "fn f1(a) {{ return a; }} \
                 pe {PE_NAME} : generic {{ input data; output output; {init} \
                 process {{ let i = {i}; let j = {j}; let key = {key}; let miss = \"nope\"; \
                 let xm = {XM}; let xl = {XL}; let x = {x}; {} }} }}",
                body.join(" ")
            )
        })
        .boxed()
}

/// The datum bound to `data`: containers nested a level or two, strings,
/// scalars.
fn arb_input() -> BoxedStrategy<Value> {
    let list = "[\"a\", [2, 3], \"héllo\", {\"a\": 4}]";
    let map = "{\"a\": [1, 2], \"k\": \"zz\", \"m\": {\"a\": 1}, \"zz\": null}";
    select(vec![list, list, map, map, "[0, -1]", "\"abc\"", "3", "null"])
        .prop_map(|s| laminar_json::parse(s).expect("literal datum"))
}

/// Which label the datum arrives under: the default input, the declared
/// port, or (one in four) a foreign label that leaves `data` unbound.
fn arb_port() -> BoxedStrategy<u8> {
    select(vec![0, 1, 1, 2])
}

fn check_differential(src: &str, runs: &[(Value, u8)], fuel: u64, seed: u64) {
    let script = parse_script(src).expect("generated source parses");
    let program = Arc::new(compile_script(&script).expect("generated source compiles"));
    let decl = script.pe(PE_NAME).expect("PE present");

    let mut interp = Interp::new(&script, Arc::new(NullHost)).with_fuel(fuel).with_seed(seed);
    let mut vm = Vm::new(program, Arc::new(NullHost)).with_fuel(fuel).with_seed(seed);
    let mut istate = Value::Null;
    let mut vstate = Value::Null;
    let mut isink = VecSink::default();
    let mut vsink = VecSink::default();

    let ii = interp.run_init(decl, &mut istate, &mut isink);
    let vi = vm.run_init(PE_NAME, &mut vstate, &mut vsink);
    assert_eq!(ii, vi, "init result diverged\n--- source ---\n{src}");
    assert_eq!(istate, vstate, "state diverged after init\n--- source ---\n{src}");

    for (it, (input, port_choice)) in runs.iter().enumerate() {
        // The default input, the declared port, or a foreign label that
        // leaves `data` unbound.
        let port = [None, Some("data"), Some("other")][*port_choice as usize];
        let ir = interp.run_process(decl, Some(input.clone()), port, it as i64, &mut istate, &mut isink);
        let vr = vm.run_process(PE_NAME, Some(input.clone()), port, it as i64, &mut vstate, &mut vsink);
        match (&ir, &vr) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "return value diverged at iteration {it}\n--- source ---\n{src}")
            }
            (Err(a), Err(b)) => assert_eq!(
                (a.kind, &a.message, a.line, a.column),
                (b.kind, &b.message, b.line, b.column),
                "error diverged at iteration {it}\n--- source ---\n{src}"
            ),
            _ => {
                panic!("Ok/Err divergence at iteration {it}: interp={ir:?} vm={vr:?}\n--- source ---\n{src}")
            }
        }
        assert_eq!(istate, vstate, "state diverged at iteration {it}\n--- source ---\n{src}");
        assert_eq!(
            interp.fuel_remaining(),
            vm.fuel_remaining(),
            "fuel diverged at iteration {it} (burn order is observable)\n--- source ---\n{src}"
        );
        if ir.is_err() {
            // A failed invocation loses the state in both engines; start
            // the next one from a fresh instance rather than from `{}`.
            let ii = interp.run_init(decl, &mut istate, &mut isink);
            let vi = vm.run_init(PE_NAME, &mut vstate, &mut vsink);
            assert_eq!(ii, vi, "re-init diverged after iteration {it}\n--- source ---\n{src}");
        }
    }
    assert_eq!(isink.port_values(), vsink.port_values(), "emissions diverged\n--- source ---\n{src}");
    assert_eq!(isink.printed, vsink.printed, "prints diverged\n--- source ---\n{src}");
}

proptest! {
    /// VM == interpreter on path-heavy programs under a generous budget.
    #[test]
    fn paths_match_interp(
        src in arb_script(),
        runs in vec((arb_input(), arb_port()), 1..4),
        seed in 0..4u64,
    ) {
        check_differential(&src, &runs, 200_000, seed);
    }

    /// Same, under tight budgets: exhaustion must land on the same burn of
    /// a walk, with the same line.
    #[test]
    fn paths_match_interp_under_fuel_pressure(
        src in arb_script(),
        runs in vec((arb_input(), arb_port()), 1..3),
        fuel in 1..400u64,
    ) {
        check_differential(&src, &runs, fuel, 0);
    }
}

/// The group-by shape the stateful workloads use, run long enough that
/// every key is read, lent and written many times: the lent map must come
/// back whole every call.
#[test]
fn group_by_counts_survive_lending() {
    let src = format!(
        "pe {PE_NAME} : generic {{ input data; output output; init {{ state.n = {{}}; state.sum = {{}}; }} \
         process {{ let id = data[0]; state.n[id] = get(state.n, id, 0) + 1; \
         state.sum[id] = get(state.sum, id, 0) + data[1]; \
         if state.n[id] % 4 == 0 {{ emit([id, state.n[id], state.sum[id], len(state.n)]); }} }} }}"
    );
    let runs: Vec<(Value, u8)> = (0..64)
        .map(|k| (Value::Array(vec![Value::Str(format!("s{}", k % 5)), Value::Int(k)]), (k % 2) as u8))
        .collect();
    check_differential(&src, &runs, 200_000, 0);
}

/// The shapes an invocation reads in place instead of copying: the alias
/// `data`, which shares the `input` slot until either name is assigned;
/// `input_port`, built only when the body names it; an assignment's index
/// that is a local other than its root; and a fused
/// `get(path, key, default?)` whose key and default are literals or
/// locals, over every container kind and followed by a fallible operand.
fn arb_in_place_stmt() -> BoxedStrategy<String> {
    let writes = select(vec![
        "input = 5;",
        "input = [7, {\"a\": 1}];",
        "input[0] = 9;",
        "input.a = 1;",
        "input[i] = data;",
        "data = 7;",
        "data = input;",
        "data[0] = 1;",
        "data.k = 2;",
        "data[i] = input;",
        "input_port = 1;",
        "input_port.x = 1;",
        "state.m[key] = 1;",
        "state.m[miss] = data;",
        "state.l[i] = j;",
        "x[i] = 2;",
        "x[key] = i;",
        "x[x] = 4;",
        "xl[i] = xl;",
        "xl[j][i] = 3;",
        "xm.m[key] = key;",
        "data[j] = 3;",
    ]);
    let reads = select(vec![
        "emit(data);",
        "emit(input);",
        "emit(data[0]);",
        "emit([input, data]);",
        "emit(len(data));",
        "emit(input_port);",
        "print(\"p\", input_port, data);",
        "emit(state);",
        "emit([x, xl, xm]);",
    ]);
    let container = select(vec![
        "state.m", "state.l", "state.zz", "state.s", "state.n", "xl", "xm.m", "xl[2]", "data", "input", "x",
    ]);
    let key = select(vec!["key", "miss", "i", "j", "\"a\"", "0", "-1", "7", "null", "x"]);
    let default = select(vec!["", ", 0", ", i", ", key", ", null", ", x"]);
    let fallible = select(vec!["data[0]", "data[1]", "input[i]", "1"]);
    let gets = (container, key, default, fallible)
        .prop_map(|(c, k, d, f)| format!("state.m[key] = get({c}, {k}{d}) + {f}; emit(get({c}, {k}{d}));"));
    prop_oneof![writes.prop_map(str::to_string), reads.prop_map(str::to_string), gets].boxed()
}

fn arb_in_place_script() -> BoxedStrategy<String> {
    let full = "init { state.m = {\"a\": 1, \"k\": 2}; state.l = [3, [4, 5], \"x\"]; state.s = \"héllo\"; \
                state.n = 7; }";
    (arb_x(), select(vec![0, 1, 2, -1, -2, 5]), select(vec![0, 1, -1, 4]), vec(arb_in_place_stmt(), 1..7))
        .prop_map(move |(x, i, j, body)| {
            format!(
                "pe {PE_NAME} : generic {{ input data; output output; {full} \
                 process {{ let i = {i}; let j = {j}; let key = \"a\"; let miss = \"nope\"; \
                 let xm = {XM}; let xl = {XL}; let x = {x}; {} }} }}",
                body.join(" ")
            )
        })
        .boxed()
}

proptest! {
    /// VM == interpreter on the shapes read in place.
    #[test]
    fn in_place_reads_match_interp(
        src in arb_in_place_script(),
        runs in vec((arb_input(), arb_port()), 1..4),
    ) {
        check_differential(&src, &runs, 200_000, 0);
    }

    /// Same, under tight budgets: a fused `get` and an in-place index burn
    /// where their copies did.
    #[test]
    fn in_place_reads_match_interp_under_fuel_pressure(
        src in arb_in_place_script(),
        runs in vec((arb_input(), arb_port()), 1..3),
        fuel in 1..200u64,
    ) {
        check_differential(&src, &runs, fuel, 0);
    }
}

/// Every datum under every label, for a fixed body.
fn check_every_datum(body: &str) {
    let src = format!(
        "pe {PE_NAME} : generic {{ input data; output output; init {{ state.m = {{\"a\": 1}}; }} \
         process {{ let i = 0; let k = \"a\"; let x = [1, 2]; {body} }} }}"
    );
    let inputs = ["[\"a\", [2, 3]]", "{\"a\": [1, 2], \"k\": \"zz\"}", "\"abc\"", "3", "null"];
    for input in inputs {
        let runs: Vec<(Value, u8)> =
            (0..3).map(|port| (laminar_json::parse(input).expect("literal datum"), port)).collect();
        check_differential(&src, &runs, 200_000, 0);
    }
}

#[test]
fn the_alias_is_copied_on_the_first_write_to_either_name() {
    check_every_datum("input = 5; emit(data); emit(input);");
    check_every_datum("input[0] = 9; emit(data); emit(data[0]); emit(input);");
    check_every_datum("input.a = 9; emit(data); emit(input);");
    check_every_datum("data = 7; emit(input); emit(data);");
    check_every_datum("data[0] = 7; emit(input); emit(data);");
    check_every_datum("emit(len(data)); input = 1; emit(len(data)); data = 2; emit([input, data]);");
}

#[test]
fn input_port_is_the_label_whether_or_not_the_body_names_it() {
    check_every_datum("emit(input_port);");
    check_every_datum("input_port.x = 1; emit(input_port);");
    check_every_datum("emit(data);");
}

#[test]
fn an_assignment_indexed_by_a_local_writes_in_place() {
    check_every_datum("state.m[k] = 2; x[i] = 3; emit([state.m, x]);");
    check_every_datum("data[i] = 3; emit([data, input]);");
    check_every_datum("x[x] = 3; emit(x);");
}

#[test]
fn a_fused_get_reads_every_container_and_then_fails_like_the_call() {
    for container in ["state.m", "state.zz", "x", "data", "input", "k"] {
        for key in ["k", "i", "\"a\"", "0", "null"] {
            check_every_datum(&format!(
                "state.m[k] = get({container}, {key}, 0) + data[0]; emit(get({container}, {key})); emit(state.m);"
            ));
        }
    }
}

/// The group-by update `P[k] = get(P, k, d?) op e`, which the VM runs as
/// one fused instruction ahead of its unchanged sequence: the fast path
/// where the entry's container is an object reached through object fields
/// and the key a string, and every case that falls through to the
/// sequence: a null, list, scalar or missing container (written by the
/// sequence, so the next invocation finds an object), a non-string key, a
/// missing key with and without a default, an operator's type error, and
/// an `e` whose read fails. `e` may read the very entry written
/// (`state.m[key]`), and a default or `e` that is the root itself, or a
/// root that is `input` or the alias, is never fused.
fn arb_update_stmt() -> BoxedStrategy<String> {
    let path = select(vec![
        "state.m",
        "state.m",
        "state.m",
        "state.s",
        "state.a.b",
        "state.a.b",
        "state.nul",
        "state.l",
        "state.n",
        "state.t",
        "state.a.t",
        "state.a.n.b",
        "xm",
        "xm",
        "xl",
        "x",
        "input",
        "data",
    ]);
    let key = select(vec!["key", "key", "key", "miss", "miss", "i", "x"]);
    let default = select(vec!["", ", 0", ", 0", ", 2.5", ", \"s\"", ", null", ", i", ", key", ", ROOT"]);
    let op = select(vec!["+", "+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="]);
    let rhs = select(vec![
        "1",
        "1",
        "0",
        "2.5",
        "\"s\"",
        "null",
        "i",
        "key",
        "data[1]",
        "data[0]",
        "PATH[key]",
        "state.m.a",
        "xl[i]",
        "ROOT",
    ]);
    (path, key, default, op, rhs)
        .prop_map(|(path, key, default, op, rhs)| {
            let root = path.split('.').next().expect("a root");
            let default = default.replace("ROOT", root);
            let rhs = rhs.replace("PATH", path).replace("ROOT", root);
            format!("{path}[{key}] = get({path}, {key}{default}) {op} {rhs};")
        })
        .boxed()
}

fn arb_update_script() -> BoxedStrategy<String> {
    let init = "init { state.m = {\"a\": 1, \"k\": 2.5}; state.s = {\"a\": \"x\"}; \
                state.a = {\"b\": {\"a\": 3}, \"n\": 4}; state.nul = null; state.l = [1, 2]; state.n = 7; }";
    let tail = select(vec!["", "emit(state);", "emit([xm, xl, x]);"]);
    (arb_x(), select(vec![0, 1, -1]), vec(arb_update_stmt(), 1..5), tail)
        .prop_map(move |(x, i, body, tail)| {
            format!(
                "pe {PE_NAME} : generic {{ input data; output output; {init} \
                 process {{ let i = {i}; let key = \"a\"; let miss = \"nope\"; let xm = {{\"a\": 1}}; \
                 let xl = [1, 2]; let x = {x}; {} {tail} }} }}",
                body.join(" ")
            )
        })
        .boxed()
}

proptest! {
    /// VM == interpreter on group-by updates, fused or not.
    #[test]
    fn updates_match_interp(
        src in arb_update_script(),
        runs in vec((arb_input(), arb_port()), 1..4),
    ) {
        check_differential(&src, &runs, 200_000, 0);
    }

    /// Same, under budgets that run out in the prelude (15 to 26 units),
    /// inside the updates (9 to 13 units each) and after them.
    #[test]
    fn updates_match_interp_under_fuel_pressure(
        src in arb_update_script(),
        runs in vec((arb_input(), arb_port()), 1..3),
        fuel in 10..80u64,
    ) {
        check_differential(&src, &runs, fuel, 0);
    }
}

/// A fused update under every budget from none left at its first unit to
/// enough for the whole body: exhaustion lands on each of its units in
/// turn, where the sequence burns it.
#[test]
fn every_budget_runs_out_where_the_sequence_burns() {
    for update in [
        "state.m[k] = get(state.m, k, 0) + 1;",
        "state.m[k] = get(state.m, k) + data[1];",
        "state.a.b[k] = get(state.a.b, k, d) * state.a.b[k];",
    ] {
        let src = format!(
            "pe {PE_NAME} : generic {{ input data; output output; \
             init {{ state.m = {{\"a\": 1}}; state.a = {{\"b\": {{\"a\": 2}}}}; }} \
             process {{ let k = \"a\"; let d = 3; {update} emit(state); }} }}"
        );
        let runs = [(laminar_json::parse("[\"a\", 5]").expect("literal datum"), 1)];
        for fuel in 1..40 {
            check_differential(&src, &runs, fuel, 0);
        }
    }
}
