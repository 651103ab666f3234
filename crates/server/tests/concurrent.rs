//! The concurrency test tier: 16 client threads mixing register, search,
//! synchronous execute and submit+poll against one server over real TCP.
//!
//! Every response must be well-formed, every job result must match a
//! sequential run of the same workflow, and no request may observe
//! another tenant's state.

use laminar_engine::{ExecutionEngine, ExecutionRequest};
use laminar_json::{jobj, Value};
use laminar_server::api::Method;
use laminar_server::http::http_call;
use laminar_server::{ApiRequest, ApiResponse, HttpServer, LaminarServer};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CLIENTS: usize = 16;

/// Per-tenant workflow source: the PE and workflow names are unique per
/// user (the registry's PE names are global with a shared-owner rule, so
/// identical names with different code would be rejected as duplicates).
fn wf_source(tenant: usize) -> String {
    format!(
        r#"
        pe Seq{tenant} : producer {{ output output; process {{ emit(iteration + 1); }} }}
        pe IsPrime{tenant} : iterative {{
            input num; output output;
            process {{
                let i = 2;
                let prime = num > 1;
                while i * i <= num {{ if num % i == 0 {{ prime = false; break; }} i = i + 1; }}
                if prime {{ emit(num); }}
            }}
        }}
        pe Print{tenant} : consumer {{ input num; process {{ print("tenant {tenant} prime", num); }} }}
        workflow Primes{tenant} {{
            doc "Prime printer of tenant {tenant}";
            nodes {{ s = Seq{tenant}; i = IsPrime{tenant}; p = Print{tenant}; }}
            connect s.output -> i.num;
            connect i.output -> p.num;
        }}
    "#
    )
}

fn iterations_for(tenant: usize) -> i64 {
    10 + tenant as i64
}

/// The ground truth: the same workflow run on a lone engine, sequentially.
fn expected_printed(tenant: usize) -> Vec<String> {
    let mut engine = ExecutionEngine::instant();
    let req = ExecutionRequest::simple("seq", &wf_source(tenant), iterations_for(tenant));
    engine.run(&req).unwrap().printed
}

fn call(addr: SocketAddr, method: Method, path: String, body: Value) -> ApiResponse {
    http_call(addr, &ApiRequest::new(method, path, body)).expect("transport-level success")
}

fn poll_result(addr: SocketAddr, user: &str, job: i64) -> ApiResponse {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let r = call(addr, Method::Get, format!("/execution/{user}/job/{job}/result"), Value::Null);
        if r.body["status"].as_str() == Some("done") || !r.is_ok() {
            return r;
        }
        assert!(Instant::now() < deadline, "job {job} of {user} never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One tenant's mixed workload. Returns (user, async job id) for the
/// cross-tenant checks afterwards.
fn tenant_workload(addr: SocketAddr, tenant: usize) -> (String, i64) {
    let user = format!("user{tenant}");
    let source = wf_source(tenant);
    let expected = expected_printed(tenant);

    // Register + login.
    let r = call(
        addr,
        Method::Post,
        "/auth/register".into(),
        jobj! { "userName" => user.as_str(), "password" => "password" },
    );
    assert!(r.is_ok(), "register {user}: {r:?}");
    assert_eq!(r.body["userName"].as_str(), Some(user.as_str()));
    let r = call(
        addr,
        Method::Post,
        "/auth/login".into(),
        jobj! { "userName" => user.as_str(), "password" => "password" },
    );
    assert!(r.is_ok(), "login {user}: {r:?}");

    // Register the tenant's workflow (registers its PEs too).
    let r = call(
        addr,
        Method::Post,
        format!("/registry/{user}/workflow/add"),
        jobj! { "code" => source.as_str(), "entryPoint" => format!("primes{tenant}") },
    );
    assert!(r.is_ok(), "workflow add {user}: {r:?}");

    // Search: only the tenant's own workflow comes back.
    let r = call(addr, Method::Get, format!("/registry/{user}/search/prime/type/workflow"), Value::Null);
    assert!(r.is_ok(), "search {user}: {r:?}");
    let hits = r.body["hits"].as_array().unwrap();
    assert_eq!(hits.len(), 1, "{user} sees exactly their own workflow: {hits:?}");
    assert_eq!(hits[0]["name"].as_str(), Some(format!("primes{tenant}").as_str()));

    // PE listing: exactly the tenant's three PEs.
    let r = call(addr, Method::Get, format!("/registry/{user}/pe/all"), Value::Null);
    let pes = r.body.as_array().unwrap();
    assert_eq!(pes.len(), 3, "{user} owns exactly their own PEs: {pes:?}");
    for pe in pes {
        assert!(
            pe["peName"].as_str().unwrap().ends_with(&tenant.to_string()),
            "{user} sees a foreign PE: {pe:?}"
        );
    }

    // Synchronous execution.
    let r = call(
        addr,
        Method::Post,
        format!("/execution/{user}/run"),
        jobj! { "workflow" => format!("primes{tenant}"), "input" => iterations_for(tenant) },
    );
    assert!(r.is_ok(), "sync run {user}: {r:?}");
    let sync_printed: Vec<&str> =
        r.body["printed"].as_array().unwrap().iter().filter_map(Value::as_str).collect();
    assert_eq!(sync_printed, expected, "{user}: concurrent sync result diverges from sequential run");

    // Asynchronous submit + poll.
    let r = call(
        addr,
        Method::Post,
        format!("/execution/{user}/submit"),
        jobj! { "workflow" => format!("primes{tenant}"), "input" => iterations_for(tenant) },
    );
    assert!(r.is_ok(), "submit {user}: {r:?}");
    let job = r.body["jobId"].as_i64().unwrap();
    let r = poll_result(addr, &user, job);
    assert!(r.is_ok(), "job result {user}: {r:?}");
    let async_printed: Vec<&str> =
        r.body["printed"].as_array().unwrap().iter().filter_map(Value::as_str).collect();
    assert_eq!(async_printed, expected, "{user}: async result diverges from sequential run");

    // A malformed request still gets a well-formed 400 envelope under load.
    let r = call(addr, Method::Post, "/auth/register".into(), Value::Null);
    assert_eq!(r.status, 400);
    assert_eq!(r.body["error"]["code"].as_str(), Some("Invalid"));

    (user, job)
}

#[test]
fn sixteen_tenants_mixed_workload() {
    let http = HttpServer::start(LaminarServer::in_memory()).unwrap();
    let addr = http.addr();

    let handles: Vec<_> =
        (0..CLIENTS).map(|t| std::thread::spawn(move || tenant_workload(addr, t))).collect();
    let tenants: Vec<(String, i64)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Cross-tenant checks after the storm: nobody can see anyone else's
    // registry entries or jobs.
    for (i, (user, _)) in tenants.iter().enumerate() {
        let other = &tenants[(i + 1) % tenants.len()];
        let r = call(
            addr,
            Method::Get,
            format!("/registry/{user}/workflow/name/primes{}", (i + 1) % tenants.len()),
            Value::Null,
        );
        assert_eq!(r.status, 404, "{user} can see {}'s workflow", other.0);
        let r = call(addr, Method::Get, format!("/execution/{user}/job/{}/status", other.1), Value::Null);
        assert_eq!(r.status, 404, "{user} can see {}'s job {}", other.0, other.1);
    }

    // The user list saw every registration exactly once.
    let r = call(addr, Method::Get, "/auth/all".into(), Value::Null);
    let mut names: Vec<&str> = r.body.as_array().unwrap().iter().filter_map(Value::as_str).collect();
    names.sort_unstable();
    let mut expected: Vec<String> = (0..CLIENTS).map(|t| format!("user{t}")).collect();
    expected.sort();
    assert_eq!(names, expected.iter().map(String::as_str).collect::<Vec<_>>());

    // Pool accounting is consistent: one sync + one async job per tenant.
    let r = call(addr, Method::Get, "/execution/pool/stats".into(), Value::Null);
    assert!(r.is_ok(), "{r:?}");
    assert_eq!(r.body["completed"].as_i64(), Some(2 * CLIENTS as i64));
    assert_eq!(r.body["failed"].as_i64(), Some(0));
    assert_eq!(r.body["running"].as_i64(), Some(0));
    assert_eq!(r.body["queued"].as_i64(), Some(0));

    http.stop();
}

#[test]
fn reads_do_not_serialize_behind_executions() {
    // A deliberately slow engine: each cold run sleeps ~400ms
    // provisioning. Reads issued while the job runs must come back far
    // sooner than the job itself — under the old global server mutex they
    // queued behind it.
    let server = laminar_server::LaminarServer::with_pool(
        laminar_registry::Registry::in_memory(),
        ExecutionEngine::instant().with_provision_scale(1000),
        2,
        16,
    );
    let http = HttpServer::start(server).unwrap();
    let addr = http.addr();
    call(
        addr,
        Method::Post,
        "/auth/register".into(),
        jobj! { "userName" => "reader", "password" => "password" },
    );
    let r = call(
        addr,
        Method::Post,
        "/registry/reader/workflow/add".into(),
        jobj! { "code" => wf_source(99).as_str(), "entryPoint" => "primes99" },
    );
    assert!(r.is_ok(), "{r:?}");

    let r = call(
        addr,
        Method::Post,
        "/execution/reader/submit".into(),
        jobj! { "workflow" => "primes99", "input" => 5 },
    );
    assert!(r.is_ok(), "{r:?}");
    let job = r.body["jobId"].as_i64().unwrap();

    // While the job provisions, reads answer quickly and the job is still
    // observable as queued/running — proof the read path did not wait for
    // the execution to finish.
    let mut observed_in_flight = false;
    for _ in 0..20 {
        let t0 = Instant::now();
        let search =
            call(addr, Method::Get, "/registry/reader/search/prime/type/workflow".into(), Value::Null);
        assert!(search.is_ok(), "{search:?}");
        assert!(
            t0.elapsed() < Duration::from_millis(300),
            "search took {:?} — serialized behind the execution",
            t0.elapsed()
        );
        let status = call(addr, Method::Get, format!("/execution/reader/job/{job}/status"), Value::Null);
        match status.body["status"].as_str().unwrap() {
            "queued" | "running" => observed_in_flight = true,
            _ => break,
        }
    }
    assert!(observed_in_flight, "job finished before any read could overlap it");

    let r = poll_result(addr, "reader", job);
    assert!(r.is_ok(), "{r:?}");
    http.stop();
}
