//! Differential test of the rotation-scan profiles against a per-look
//! oracle.
//!
//! `measure_profiles` groups the log once per window, evaluates the horn
//! row once per distinct arrival direction and folds the components look
//! by look from that row. The oracle below is the straightforward form:
//! its own first-seen grouping by (source, pose bits, pattern, boost),
//! the airtime folded in log order, the same components, and for every
//! look a `.sum()` of `base · horn gain` over all components. Every scan
//! point of `measure_profiles` and of `measure_profile` must agree with
//! it bit for bit.

use mmwave_capture::scan::ScanPoint;
use mmwave_channel::Environment;
use mmwave_core::analysis::reflections::{measure_profile, measure_profiles};
use mmwave_core::experiments::fig18::run_room;
use mmwave_core::scenarios::{seeds, RoomSystem};
use mmwave_geom::{full_circle, Angle, Material, Point, Room, Segment, Vec2};
use mmwave_mac::{Device, FrameClass, Net, NetConfig, PatKey, Scenario, TxLogEntry, WorldMutation};
use mmwave_phy::{db_to_lin, horn_25dbi, lin_to_db};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// The per-look oracle: every look sums every component on its own.
mod oracle {
    use super::*;

    fn control_boost(net: &Net, e: &TxLogEntry) -> f64 {
        use FrameClass::*;
        match e.class {
            Beacon | DiscoverySub | WihdBeacon | Training => net.config().control_power_offset_db,
            _ => 0.0,
        }
    }

    pub fn measure_profile(
        net: &Net,
        probe: Point,
        n_dirs: usize,
        from: SimTime,
        to: SimTime,
    ) -> Vec<ScanPoint> {
        // First-seen groups, each with its first frame and its airtime
        // summed in log order.
        let mut index: HashMap<(usize, [u64; 3], PatKey, u64), usize> = HashMap::new();
        let mut groups: Vec<(&TxLogEntry, f64)> = Vec::new();
        let mut airtime: Vec<f64> = Vec::new();
        for e in net.txlog().in_window(from, to) {
            let boost_db = control_boost(net, e);
            let pose = [
                e.src_position.x.to_bits(),
                e.src_position.y.to_bits(),
                e.src_orientation.radians().to_bits(),
            ];
            let g = *index
                .entry((e.src, pose, e.pattern, boost_db.to_bits()))
                .or_insert_with(|| {
                    groups.push((e, boost_db));
                    airtime.push(0.0);
                    groups.len() - 1
                });
            airtime[g] += (e.end - e.start).as_secs_f64();
        }
        let total_time: f64 = airtime.iter().sum();
        let mut components: Vec<(Angle, f64)> = Vec::new();
        for (&(e, boost_db), &t) in groups.iter().zip(&airtime) {
            let dev = net.device(e.src);
            let mut node = dev.node.clone();
            node.position = e.src_position;
            node.orientation = e.src_orientation;
            let tx_pattern = dev.pattern(e.pattern);
            for path in net.env.paths(e.src_position, probe) {
                let ga = node.gain_toward(tx_pattern, path.departure);
                let dbm =
                    net.env.budget.rx_power_dbm(ga, 0.0, &path) + dev.tx_power_offset_db + boost_db
                        - net.env.extra_loss_db;
                components.push((path.arrival, db_to_lin(dbm) * t / total_time.max(1e-12)));
            }
        }
        let horn = horn_25dbi();
        full_circle(n_dirs, Angle::ZERO)
            .into_iter()
            .map(|look| {
                let power_dbm = if components.is_empty() {
                    -120.0
                } else {
                    let lin: f64 = components
                        .iter()
                        .map(|(arrival, base)| base * db_to_lin(horn.gain_dbi(arrival.diff(look))))
                        .sum();
                    lin_to_db(lin)
                };
                ScanPoint {
                    angle: look,
                    power_dbm,
                }
            })
            .collect()
    }
}

fn assert_scans_equal(what: &str, got: &[ScanPoint], want: &[ScanPoint]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.angle.radians().to_bits(),
            w.angle.radians().to_bits(),
            "{what}[{i}]: angle"
        );
        assert_eq!(
            g.power_dbm.to_bits(),
            w.power_dbm.to_bits(),
            "{what}[{i}]: {} dBm vs oracle {} dBm",
            g.power_dbm,
            w.power_dbm
        );
    }
}

/// Compare `measure_profiles` over all `probes` at once, and
/// `measure_profile` probe by probe, against the oracle.
fn check_window(what: &str, net: &Net, probes: &[Point], from: SimTime, to: SimTime) {
    for n_dirs in [7, 120, 360] {
        let together = measure_profiles(net, probes, n_dirs, from, to);
        assert_eq!(
            together.len(),
            probes.len(),
            "{what}: one profile per probe"
        );
        for (k, (&probe, profile)) in probes.iter().zip(&together).enumerate() {
            let want = oracle::measure_profile(net, probe, n_dirs, from, to);
            assert_scans_equal(
                &format!("{what}: measure_profiles probe {k}, {n_dirs} looks"),
                profile.points(),
                &want,
            );
            assert_scans_equal(
                &format!("{what}: measure_profile probe {k}, {n_dirs} looks"),
                measure_profile(net, probe, n_dirs, from, to).points(),
                &want,
            );
        }
    }
}

fn check_room(system: RoomSystem, seed: u64) {
    let ctx = SimCtx::new();
    let (r, _, _) = run_room(&ctx, system, true, seed);
    let probes = r.layout.probes.map(|(_, pos)| pos);
    let what = format!("{system:?} room, seed {seed}");
    check_window(&what, &r.net, &probes, SimTime::ZERO, r.net.now());
}

#[test]
fn wigig_room_probes_match_oracle() {
    check_room(RoomSystem::Wigig, 3);
}

#[test]
fn wihd_room_probes_match_oracle() {
    check_room(RoomSystem::Wihd, 3);
}

/// The moving-source net of `replay_equivalence.rs`: a dock/laptop link
/// whose dock hops across the room at 10 ms while a walking blocker
/// crosses the upper half, with discovery running first so `Dir` and
/// `Qo` patterns and the control-boosted classes are all in the log.
fn moving_source_net(ctx: &SimCtx) -> (Net, usize) {
    let mut room = Room::open_space();
    let shape = Segment::new(Point::new(1.0, 2.0), Point::new(1.0, 3.0));
    let walker = room.add_obstacle(shape, Material::Human, "walker");
    let cfg = NetConfig {
        seed: 7,
        enable_fading: false,
        ..NetConfig::default()
    };
    let mut net = Net::with_ctx(Environment::new(room), cfg, ctx);
    let dock = net.add_device(Device::wigig_dock(
        ctx,
        "Dock",
        Point::new(0.0, 0.0),
        Angle::ZERO,
        seeds::DOCK_A,
    ));
    let laptop = net.add_device(Device::wigig_laptop(
        ctx,
        "Laptop",
        Point::new(2.0, 0.0),
        Angle::from_degrees(180.0),
        seeds::LAPTOP_A,
    ));
    let scenario = Scenario::new()
        .walking_blocker(
            walker,
            shape,
            Vec2::new(1.0, 0.0),
            SimTime::from_millis(2),
            SimDuration::from_millis(6),
            4,
        )
        .at(
            SimTime::from_millis(10),
            WorldMutation::MoveDevice {
                dev: dock,
                position: Point::new(0.0, 4.0),
                orientation: Angle::from_degrees(-63.4),
            },
        );
    net.install_scenario(scenario);
    net.start();
    net.run_until(SimTime::from_millis(3));
    net.associate_instantly(dock, laptop);
    for k in 4..=20u64 {
        for i in 0..60u64 {
            net.push_mpdu(dock, 1500, k * 100 + i);
        }
        net.run_until(SimTime::from_millis(k));
    }
    (net, dock)
}

const MOVING_PROBES: [Point; 3] = [
    Point { x: 1.0, y: 0.3 },
    Point { x: 0.3, y: 0.5 },
    Point { x: 1.0, y: 2.5 },
];

#[test]
fn moving_source_and_walking_blocker_match_oracle() {
    let ctx = SimCtx::new();
    let (net, dock) = moving_source_net(&ctx);
    let poses: std::collections::HashSet<u64> = net
        .txlog()
        .in_window(SimTime::ZERO, net.now())
        .filter(|e| e.src == dock)
        .map(|e| e.src_position.y.to_bits())
        .collect();
    assert!(poses.len() >= 2, "the dock must transmit from both poses");
    check_window("whole run", &net, &MOVING_PROBES, SimTime::ZERO, net.now());
    check_window(
        "across the move",
        &net,
        &MOVING_PROBES,
        SimTime::from_millis(8),
        SimTime::from_millis(13),
    );
}

#[test]
fn empty_window_reads_minus_120_everywhere() {
    let ctx = SimCtx::new();
    let (net, _) = moving_source_net(&ctx);
    let from = net.now() + SimDuration::from_millis(5);
    let to = from + SimDuration::from_millis(5);
    assert_eq!(net.txlog().in_window(from, to).count(), 0);
    check_window("empty", &net, &MOVING_PROBES, from, to);
    for profile in measure_profiles(&net, &MOVING_PROBES, 120, from, to) {
        assert!(profile.points().iter().all(|p| p.power_dbm == -120.0));
    }
}
