//! End-to-end daemon tests: real TCP clients against a running daemon,
//! covering the retry path under injected connection faults (one client,
//! and sixteen concurrent ones), the circuit breaker, crash/restart
//! recovery, and the streaming-telemetry push path: live own-tenant
//! subscriptions, shedding a lagging subscriber without stalling
//! admission, and the daemon's JSONL mirror folding cleanly.

use bluescale_ctl::client::{CtlClient, RetryPolicy, TelemetrySubscription};
use bluescale_ctl::proto::{RejectReason, Response, TaskSpec, TenantClass};
use bluescale_ctl::server::{Daemon, DaemonConfig, TelemetryConfig};
use bluescale_sim::metrics::Counter;
use bluescale_telemetry::jsonl::fold_jsonl;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn test_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bluescale-ctl-e2e-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec(period: u64, wcet: u64) -> TaskSpec {
    TaskSpec { period, wcet }
}

fn small_config() -> DaemonConfig {
    DaemonConfig {
        capacity: 8,
        queue_depth: 64,
        batch_max: 8,
        sim_cycles_per_batch: 32,
        compact_every: 0,
        queue_deadline: Duration::from_secs(2),
        ..DaemonConfig::default()
    }
}

#[test]
fn join_renegotiate_leave_over_tcp() {
    let dir = test_dir("basic");
    let daemon = Daemon::start(&dir, small_config()).expect("start");
    let mut client = CtlClient::new(daemon.addr(), RetryPolicy::default(), 1);

    assert!(matches!(client.ping(), Ok(Response::Pong)));
    let joined = client
        .join(7, TenantClass::Guaranteed, vec![spec(400, 2)])
        .expect("join");
    assert!(
        matches!(joined, Response::Admitted { .. }),
        "got {joined:?}"
    );
    assert!(matches!(
        client
            .renegotiate(7, vec![spec(200, 2)])
            .expect("renegotiate"),
        Response::Admitted { .. }
    ));
    assert!(matches!(
        client.stats(7).expect("stats"),
        Response::Stats(_)
    ));
    assert!(matches!(
        client.stats(99).expect("stats unknown"),
        Response::Rejected {
            reason: RejectReason::UnknownTenant
        }
    ));
    assert!(matches!(
        client.leave(7).expect("leave"),
        Response::Admitted { .. }
    ));
    assert_eq!(daemon.tenant_count(), 0);

    let stats = daemon.shutdown();
    assert!(stats.conservation_holds(), "leaky accounting: {stats:?}");
    // Read-only requests (ping, stats) never enter the admission queue
    // and are outside conservation.
    assert_eq!(stats.received, 3, "join + renegotiate + leave");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn dropped_responses_are_survived_by_retries() {
    let dir = test_dir("faults");
    let daemon = Daemon::start(&dir, small_config()).expect("start");
    // Sever the connection after every 2nd sent frame: every other
    // response is lost in flight and the client must reconnect + resend.
    let policy = RetryPolicy {
        drop_after_send_every: Some(2),
        ..RetryPolicy::default()
    };
    let mut client = CtlClient::new(daemon.addr(), policy, 99);

    for tenant in 0..4u64 {
        let r = client
            .join(tenant, TenantClass::BestEffort, vec![spec(1000, 2)])
            .unwrap_or_else(|e| panic!("join {tenant} failed under faults: {e}"));
        assert!(matches!(r, Response::Admitted { .. }), "got {r:?}");
    }
    assert_eq!(daemon.tenant_count(), 4);
    let retries = daemon.sim_counter(Counter::Retries);
    assert!(retries > 0, "fault injection must force retries");

    let stats = daemon.shutdown();
    assert!(stats.retries > 0);
    // Retried requests are counted once per arrival; conservation still
    // holds because every arrival got exactly one verdict.
    assert!(stats.conservation_holds(), "leaky accounting: {stats:?}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn flapping_tenant_trips_the_breaker_into_quarantine() {
    let dir = test_dir("breaker");
    let daemon = Daemon::start(&dir, small_config()).expect("start");
    let mut client = CtlClient::new(daemon.addr(), RetryPolicy::default(), 3);

    assert!(matches!(
        client
            .join(5, TenantClass::BestEffort, vec![spec(400, 2)])
            .expect("join"),
        Response::Admitted { .. }
    ));
    // Flap: conflicting joins keep getting rejected until the breaker
    // (threshold 8 within a window of 16) trips.
    let mut saw_quarantined = false;
    for _ in 0..12 {
        match client
            .join(5, TenantClass::Guaranteed, vec![spec(400, 2)])
            .expect("flapping join")
        {
            Response::Rejected {
                reason: RejectReason::AlreadyJoined,
            } => {}
            Response::Rejected {
                reason: RejectReason::Quarantined,
            } => {
                saw_quarantined = true;
                break;
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }
    assert!(saw_quarantined, "breaker never tripped");
    let stats = daemon.shutdown();
    assert!(stats.conservation_holds(), "leaky accounting: {stats:?}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantine_frees_capacity_durably_across_restart() {
    let dir = test_dir("quarantine-restart");
    let config = small_config();
    let daemon = Daemon::start(&dir, config.clone()).expect("start");
    let mut client = CtlClient::new(daemon.addr(), RetryPolicy::default(), 7);

    // Three tenants at ~19% demand each saturate the root budget.
    for t in 1..=3u64 {
        assert!(matches!(
            client
                .join(t, TenantClass::Guaranteed, vec![spec(16, 3)])
                .expect("join"),
            Response::Admitted { .. }
        ));
    }
    // Tenant 3 flaps: renegotiations that cannot fit keep getting
    // rejected until the breaker (threshold 8, window 16) trips it into
    // quarantine, shedding its reservation.
    let mut quarantined = false;
    for _ in 0..12 {
        match client.renegotiate(3, vec![spec(8, 3)]).expect("flap") {
            Response::Rejected {
                reason: RejectReason::Inadmissible,
            } => {}
            Response::Rejected {
                reason: RejectReason::Quarantined,
            } => {
                quarantined = true;
                break;
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }
    assert!(quarantined, "breaker never tripped");
    assert_eq!(daemon.quarantined_slots(), vec![2]);

    // The demotion freed tenant 3's reservation: a 4th identical tenant
    // now fits, and its admission is journaled AFTER the quarantine.
    assert!(matches!(
        client
            .join(4, TenantClass::Guaranteed, vec![spec(16, 3)])
            .expect("post-demotion join"),
        Response::Admitted { .. }
    ));
    let digest = daemon.state_digest();
    daemon.kill();

    // Replay must re-shed the quarantined reservation; an unjournaled
    // demotion would make tenant 4's join replay as Rejected and the
    // daemon refuse to start (ReplayDiverged).
    let revived = Daemon::start(&dir, config).expect("restart after breaker trip");
    assert_eq!(
        revived.state_digest(),
        digest,
        "recovery must reproduce the post-demotion admission state"
    );
    assert_eq!(revived.quarantined_slots(), vec![2]);
    assert_eq!(revived.tenant_count(), 4);
    revived.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_trickled_frames_stay_in_sync() {
    // A healthy-but-slow client that dribbles its frame across several
    // of the daemon's 100ms read-poll windows: the handler must buffer
    // the partial frame, not restart the framing mid-stream.
    use bluescale_ctl::proto::{read_frame, write_frame, Request};
    use std::io::Write as _;
    use std::net::TcpStream;

    let dir = test_dir("trickle");
    let daemon = Daemon::start(&dir, small_config()).expect("start");
    let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    let payload = Request::Join {
        tenant: 21,
        class: TenantClass::Guaranteed,
        tasks: vec![spec(400, 2)],
        attempt: 0,
    }
    .encode();
    let mut frame = Vec::new();
    write_frame(&mut frame, &payload).expect("encode frame");
    // Trickle: split inside the length prefix AND inside the payload,
    // pausing past the read timeout between every piece.
    for piece in [&frame[..2], &frame[2..6], &frame[6..]] {
        stream.write_all(piece).expect("write piece");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(250));
    }
    let response = read_frame(&mut stream).expect("response arrives");
    assert!(matches!(
        Response::decode(&response).expect("decodes"),
        Response::Admitted { .. }
    ));
    assert_eq!(daemon.tenant_count(), 1);

    let stats = daemon.shutdown();
    assert!(stats.conservation_holds(), "leaky accounting: {stats:?}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_and_restart_replays_to_the_same_state() {
    let dir = test_dir("restart");
    let config = small_config();
    let daemon = Daemon::start(&dir, config.clone()).expect("start");
    let mut client = CtlClient::new(daemon.addr(), RetryPolicy::default(), 4);

    for (tenant, class, tasks) in [
        (1u64, TenantClass::Guaranteed, vec![spec(400, 2)]),
        (2, TenantClass::BestEffort, vec![spec(1000, 5)]),
        (3, TenantClass::Guaranteed, vec![spec(500, 1)]),
    ] {
        assert!(matches!(
            client.join(tenant, class, tasks).expect("join"),
            Response::Admitted { .. }
        ));
    }
    assert!(matches!(
        client
            .renegotiate(1, vec![spec(200, 2)])
            .expect("renegotiate"),
        Response::Admitted { .. }
    ));
    assert!(matches!(
        client.leave(2).expect("leave"),
        Response::Admitted { .. }
    ));
    // Every acknowledged op is durable: the digest here is the recovery
    // target.
    let digest = daemon.state_digest();
    daemon.kill();

    let revived = Daemon::start(&dir, config).expect("restart");
    assert_eq!(
        revived.state_digest(),
        digest,
        "recovery must replay to the exact pre-crash admission state"
    );
    assert_eq!(revived.tenant_count(), 2);
    assert_eq!(revived.sim_counter(Counter::RecoveryReplays), 5);

    // The revived daemon keeps serving: the freed slot is reusable.
    let mut client = CtlClient::new(revived.addr(), RetryPolicy::default(), 5);
    assert!(matches!(
        client
            .join(9, TenantClass::BestEffort, vec![spec(800, 2)])
            .expect("post-recovery join"),
        Response::Admitted { .. }
    ));
    revived.shutdown();
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_mid_run_preserves_recovery() {
    let dir = test_dir("compacted");
    let config = DaemonConfig {
        compact_every: 3,
        ..small_config()
    };
    let daemon = Daemon::start(&dir, config.clone()).expect("start");
    let mut client = CtlClient::new(daemon.addr(), RetryPolicy::default(), 6);
    for tenant in 0..6u64 {
        assert!(matches!(
            client
                .join(tenant, TenantClass::BestEffort, vec![spec(2000, 2)])
                .expect("join"),
            Response::Admitted { .. }
        ));
    }
    assert!(matches!(
        client.leave(0).expect("leave"),
        Response::Admitted { .. }
    ));
    let digest = daemon.state_digest();
    daemon.kill();

    let revived = Daemon::start(&dir, config).expect("restart");
    assert_eq!(revived.state_digest(), digest);
    assert_eq!(revived.tenant_count(), 5);
    revived.shutdown();
    fs::remove_dir_all(&dir).ok();
}

/// Every 2nd frame's response is lost in flight: the client must
/// reconnect and resend.
fn faulty_policy() -> RetryPolicy {
    RetryPolicy {
        drop_after_send_every: Some(2),
        max_attempts: 8,
        deadline: Duration::from_secs(10),
        ..RetryPolicy::default()
    }
}

#[test]
fn concurrent_faulted_clients_conserve_requests_and_recover_the_digest() {
    // Sixteen client threads, eight of them guaranteed tenants, each run
    // three rounds of join, renegotiate, leave and stats while losing
    // every 2nd response in flight.
    const CLIENTS: usize = 16;
    const GUARANTEED: usize = 8;
    const ROUNDS: usize = 3;
    let dir = test_dir("concurrent-faults");
    let config = DaemonConfig {
        capacity: 32,
        batch_max: 16,
        compact_every: 24,
        ..small_config()
    };
    let daemon = Daemon::start(&dir, config.clone()).expect("start");
    let addr = daemon.addr();

    let guaranteed_misses = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let misses = &guaranteed_misses;
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let guaranteed = c < GUARANTEED;
                let class = if guaranteed {
                    TenantClass::Guaranteed
                } else {
                    TenantClass::BestEffort
                };
                let mut client = CtlClient::new(addr, faulty_policy(), 0x5340 + c as u64);
                let id = c as u64;
                for round in 0..ROUNDS {
                    let ops = [
                        client.join(id, class, vec![spec(4000, 1)]),
                        client.renegotiate(id, vec![spec(3000 + round as u64, 1)]),
                        client.leave(id),
                    ];
                    let admitted = ops
                        .iter()
                        .filter(|op| matches!(op, Ok(Response::Admitted { .. })))
                        .count();
                    let _ = client.stats(id);
                    if guaranteed && admitted != 3 {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let retries = daemon.sim_counter(Counter::Retries);
    let digest = daemon.state_digest();
    let stats = daemon.kill();
    // Every admission request got exactly one verdict: no silent drop.
    assert!(stats.conservation_holds(), "leaky accounting: {stats:?}");
    // Retries and idempotent admission hide the faults from every
    // guaranteed tenant.
    assert_eq!(
        guaranteed_misses.load(Ordering::Relaxed),
        0,
        "guaranteed tenants missed operations under faults"
    );
    assert!(retries > 0, "fault injection must force retries");

    let revived = Daemon::start(&dir, config).expect("restart");
    assert_eq!(
        revived.state_digest(),
        digest,
        "recovery must replay to the pre-crash admission state"
    );
    revived.shutdown();
    fs::remove_dir_all(&dir).ok();
}

fn telemetry_config(telemetry: TelemetryConfig) -> DaemonConfig {
    DaemonConfig {
        capacity: 32,
        batch_max: 16,
        telemetry: Some(telemetry),
        ..small_config()
    }
}

/// Drains updates from one subscription for up to `budget`, asserting
/// each carries the subscriber's tenant and a strictly increasing epoch.
/// Returns the number of updates seen.
fn drain_updates(
    sub: &mut TelemetrySubscription,
    tenant: u64,
    want: usize,
    budget: Duration,
) -> usize {
    let start = Instant::now();
    let mut last_epoch: Option<u64> = None;
    let mut seen = 0usize;
    while seen < want && start.elapsed() < budget {
        match sub.next_update(Duration::from_millis(500)) {
            Ok(Some(update)) => {
                assert_eq!(update.tenant, tenant, "a foreign tenant's update");
                if let Some(prev) = last_epoch {
                    assert!(update.epoch > prev, "epoch {} after {prev}", update.epoch);
                }
                last_epoch = Some(update.epoch);
                seen += 1;
            }
            Ok(None) => {}
            Err(e) => panic!("subscription for tenant {tenant} failed: {e}"),
        }
    }
    seen
}

#[test]
fn subscribers_stream_their_own_tenant_while_faulted_churn_runs() {
    // Eight tenants join; tenants 0 and 1 subscribe to their own SLO
    // stream while another client churns four more tenants with every
    // 2nd response lost. Afterwards the daemon's JSONL mirror must fold.
    const TENANTS: u64 = 8;
    const UPDATES: usize = 4;
    let dir = test_dir("telemetry-live");
    let jsonl = dir.join("telemetry.jsonl");
    let config = telemetry_config(TelemetryConfig {
        period: 64,
        jsonl_path: Some(jsonl.clone()),
        ..TelemetryConfig::default()
    });
    let daemon = Daemon::start(&dir, config).expect("start");
    let addr = daemon.addr();

    let mut admit = CtlClient::new(addr, faulty_policy(), 0x7E1E_0001);
    for t in 0..TENANTS {
        let class = if t % 2 == 0 {
            TenantClass::Guaranteed
        } else {
            TenantClass::BestEffort
        };
        let resp = admit.join(t, class, vec![spec(64, 1)]).expect("join");
        assert!(matches!(resp, Response::Admitted { .. }), "got {resp:?}");
    }

    std::thread::scope(|scope| {
        for t in 0..2 {
            scope.spawn(move || {
                let mut client = CtlClient::new(addr, RetryPolicy::default(), 0x7E1E_1000 + t);
                let mut sub = client.subscribe(t).expect("subscribe");
                let seen = drain_updates(&mut sub, t, UPDATES, Duration::from_secs(20));
                assert!(seen >= UPDATES, "tenant {t} saw only {seen} updates");
            });
        }
        scope.spawn(move || {
            let mut client = CtlClient::new(addr, faulty_policy(), 0x7E1E_2000);
            for round in 0..3 {
                for t in TENANTS..TENANTS + 4 {
                    let _ = client.join(t, TenantClass::BestEffort, vec![spec(64, 1)]);
                    let _ = client.renegotiate(t, vec![spec(48 + round, 1)]);
                    let _ = client.leave(t);
                }
            }
        });
    });

    assert!(
        daemon.sim_counter(Counter::Retries) > 0,
        "fault injection must force retries"
    );
    let stats = daemon.shutdown();
    assert!(stats.conservation_holds(), "leaky accounting: {stats:?}");
    let stream = fs::read_to_string(&jsonl).expect("read the jsonl mirror");
    let folded = fold_jsonl(&stream).expect("the jsonl mirror folds");
    assert!(folded.epochs > 1, "the stream must cross flush boundaries");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn lagging_subscriber_is_shed_without_stalling_admission() {
    // A depth-1 push channel and a 50 ms write delay per pushed frame:
    // the daemon must shed updates (`SubscriberLagged`) instead of
    // backpressuring flushes or admission.
    let dir = test_dir("telemetry-slow");
    let config = telemetry_config(TelemetryConfig {
        period: 32,
        subscriber_depth: 1,
        slow_subscriber_writes: Some(Duration::from_millis(50)),
        ..TelemetryConfig::default()
    });
    let daemon = Daemon::start(&dir, config).expect("start");
    let addr = daemon.addr();
    let daemon_ref = &daemon;

    let mut admit = CtlClient::new(addr, RetryPolicy::default(), 0x7E1E_0002);
    let resp = admit
        .join(0, TenantClass::Guaranteed, vec![spec(64, 1)])
        .expect("join");
    assert!(matches!(resp, Response::Admitted { .. }), "got {resp:?}");

    std::thread::scope(|scope| {
        // Surviving epochs of the slow stream must still be monotone.
        scope.spawn(move || {
            let mut client = CtlClient::new(addr, RetryPolicy::default(), 0x7E1E_3000);
            let mut sub = client.subscribe(0).expect("subscribe");
            let seen = drain_updates(&mut sub, 0, usize::MAX, Duration::from_secs(4));
            assert!(seen > 0, "the slow subscriber received nothing");
        });
        scope.spawn(move || {
            let mut client = CtlClient::new(addr, RetryPolicy::default(), 0x7E1E_4000);
            for t in 1..5u64 {
                let start = Instant::now();
                let resp = client
                    .join(t, TenantClass::BestEffort, vec![spec(64, 1)])
                    .expect("join");
                assert!(matches!(resp, Response::Admitted { .. }), "got {resp:?}");
                client.leave(t).expect("leave");
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "admission stalled behind a lagging subscriber"
                );
            }
        });
        scope.spawn(move || {
            let start = Instant::now();
            while daemon_ref.sim_counter(Counter::SubscriberLagged) == 0 {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "SubscriberLagged never fired under a slow reader"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        });
    });

    let stats = daemon.shutdown();
    assert!(stats.conservation_holds(), "leaky accounting: {stats:?}");
    fs::remove_dir_all(&dir).ok();
}
