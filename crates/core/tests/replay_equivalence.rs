//! Differential test of the tap-side replay against a per-frame oracle.
//!
//! The replay computes each distinct transmit configuration's incident
//! power once per tap and folds the per-frame values in log order. The
//! oracle below is the straightforward per-frame computation: one ray
//! trace, one node and one gain sum for every logged frame. Every scan
//! point and every trace segment must agree bit for bit.

use mmwave_capture::scan::ScanPoint;
use mmwave_capture::trace::SegmentTag;
use mmwave_capture::SignalTrace;
use mmwave_channel::{Environment, RadioNode};
use mmwave_core::analysis::beampattern::{measure_discovery_pattern, measure_pattern};
use mmwave_core::replay::{replay_trace, TapConfig};
use mmwave_core::scenarios::{reflection_room, seeds, RoomSystem};
use mmwave_geom::{arc, Angle, Material, Point, Room, Segment, Vec2};
use mmwave_mac::{Device, FrameClass, Net, NetConfig, PatKey, Scenario, TxLogEntry, WorldMutation};
use mmwave_phy::{db_to_lin, lin_to_db};
use mmwave_sim::ctx::SimCtx;
use mmwave_sim::time::{SimDuration, SimTime};

/// The per-frame oracle: every frame traced and summed on its own.
mod oracle {
    use super::*;

    fn control_boost(net: &Net, e: &TxLogEntry) -> f64 {
        use FrameClass::*;
        match e.class {
            Beacon | DiscoverySub | WihdBeacon | Training => net.config().control_power_offset_db,
            _ => 0.0,
        }
    }

    pub fn incident_power_dbm(net: &Net, tap: &TapConfig, e: &TxLogEntry) -> f64 {
        let dev = net.device(e.src);
        let probe = RadioNode::new(usize::MAX - 7, "vubiq", tap.position, tap.orientation);
        let paths = net.env.paths(e.src_position, tap.position);
        let mut src_node = dev.node.clone();
        src_node.position = e.src_position;
        src_node.orientation = e.src_orientation;
        let tx_pattern = dev.pattern(e.pattern);
        let lin: f64 = paths
            .iter()
            .map(|path| {
                let ga = src_node.gain_toward(tx_pattern, path.departure);
                let gb = probe.gain_toward(&tap.receiver.antenna, path.arrival);
                db_to_lin(
                    net.env.budget.rx_power_dbm(ga, gb, path) + dev.tx_power_offset_db
                        - net.env.extra_loss_db
                        + control_boost(net, e),
                )
            })
            .sum();
        lin_to_db(lin)
    }

    pub fn replay_trace(net: &Net, tap: &TapConfig, from: SimTime, to: SimTime) -> SignalTrace {
        let mut trace = tap.receiver.begin_capture(from, to);
        for e in net.txlog().in_window(from, to) {
            tap.receiver.record(
                &mut trace,
                e.start,
                e.end,
                incident_power_dbm(net, tap, e),
                SegmentTag {
                    source: e.src,
                    class: e.class.as_u8(),
                },
            );
        }
        trace
    }

    pub fn mean_data_power_dbm(
        net: &Net,
        tap: &TapConfig,
        src: usize,
        from: SimTime,
        to: SimTime,
    ) -> Option<f64> {
        let trace = replay_trace(net, tap, from, to);
        let data_class = FrameClass::Data.as_u8();
        let wihd_data = FrameClass::WihdData.as_u8();
        let mut lin_sum = 0.0;
        let mut n = 0usize;
        for seg in trace.segments() {
            if seg.tag.source == src && (seg.tag.class == data_class || seg.tag.class == wihd_data)
            {
                lin_sum += db_to_lin(tap.receiver.volts_to_power_dbm(seg.amplitude_v.max(1e-9)));
                n += 1;
            }
        }
        (n > 0).then(|| lin_to_db(lin_sum / n as f64))
    }

    fn semicircle(
        net: &Net,
        dut: usize,
        facing: Angle,
        radius: f64,
        n: usize,
        power: impl Fn(&TapConfig) -> f64,
    ) -> Vec<ScanPoint> {
        let dut_pos = net.device(dut).node.position;
        arc(n, Angle::from_degrees(-90.0), Angle::from_degrees(90.0))
            .into_iter()
            .map(|rel| {
                let pos = dut_pos + (facing + rel).unit() * radius;
                let look = Angle::from_radians((dut_pos - pos).angle());
                ScanPoint {
                    angle: rel,
                    power_dbm: power(&TapConfig::horn(pos, look)),
                }
            })
            .collect()
    }

    pub fn measure_pattern(
        net: &Net,
        dut: usize,
        facing: Angle,
        radius: f64,
        n: usize,
        from: SimTime,
        to: SimTime,
    ) -> Vec<ScanPoint> {
        semicircle(net, dut, facing, radius, n, |tap| {
            mean_data_power_dbm(net, tap, dut, from, to).unwrap_or(-120.0)
        })
    }

    #[allow(clippy::too_many_arguments)]
    pub fn measure_discovery_pattern(
        net: &Net,
        dut: usize,
        sub_idx: usize,
        facing: Angle,
        radius: f64,
        n: usize,
        from: SimTime,
        to: SimTime,
    ) -> Vec<ScanPoint> {
        let entries: Vec<&TxLogEntry> = net
            .txlog()
            .in_window(from, to)
            .filter(|e| {
                e.src == dut
                    && e.class == FrameClass::DiscoverySub
                    && e.pattern == PatKey::Qo(sub_idx)
            })
            .collect();
        semicircle(net, dut, facing, radius, n, |tap| {
            if entries.is_empty() {
                return -120.0;
            }
            let lin: f64 = entries
                .iter()
                .map(|e| db_to_lin(incident_power_dbm(net, tap, e)))
                .sum();
            lin_to_db(lin / entries.len() as f64)
        })
    }
}

fn quiet(seed: u64) -> NetConfig {
    NetConfig {
        seed,
        enable_fading: false,
        ..NetConfig::default()
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

fn assert_traces_equal(what: &str, got: &SignalTrace, want: &SignalTrace) {
    assert_eq!(got.window_start, want.window_start, "{what}: window start");
    assert_eq!(got.window_end, want.window_end, "{what}: window end");
    assert_eq!(
        got.noise_rms_v.to_bits(),
        want.noise_rms_v.to_bits(),
        "{what}: noise"
    );
    let (g, w) = (got.segments(), want.segments());
    assert_eq!(g.len(), w.len(), "{what}: segment count");
    for (i, (a, b)) in g.iter().zip(w).enumerate() {
        assert_eq!((a.start, a.end), (b.start, b.end), "{what}[{i}]: span");
        assert_eq!(
            (a.tag.source, a.tag.class),
            (b.tag.source, b.tag.class),
            "{what}[{i}]: tag"
        );
        assert_eq!(
            a.amplitude_v.to_bits(),
            b.amplitude_v.to_bits(),
            "{what}[{i}]: {} V vs oracle {} V",
            a.amplitude_v,
            b.amplitude_v
        );
    }
}

/// Compare the three replay consumers against the oracle over one window.
fn check_window(what: &str, net: &Net, dut: usize, facing: Angle, from: SimTime, to: SimTime) {
    let n = 25;
    assert_scans_equal(
        &format!("{what}: measure_pattern"),
        &measure_pattern(net, dut, facing, 3.2, n, from, to),
        &oracle::measure_pattern(net, dut, facing, 3.2, n, from, to),
    );
    for sub in [0, 9] {
        assert_scans_equal(
            &format!("{what}: measure_discovery_pattern({sub})"),
            &measure_discovery_pattern(net, dut, sub, facing, 3.2, n, from, to),
            &oracle::measure_discovery_pattern(net, dut, sub, facing, 3.2, n, from, to),
        );
    }
    for tap in [
        TapConfig::waveguide(Point::new(0.3, 0.5), Angle::from_degrees(-90.0)),
        TapConfig::horn(Point::new(1.0, 2.5), Angle::from_degrees(-110.0)),
    ] {
        assert_traces_equal(
            &format!("{what}: replay_trace"),
            &replay_trace(net, &tap, from, to),
            &oracle::replay_trace(net, &tap, from, to),
        );
    }
}

/// A dock/laptop link whose dock is scripted to hop across the room at
/// 10 ms while a walking blocker crosses the upper half, with discovery
/// running so both `Dir` (data) and `Qo` (discovery) patterns and the
/// control-boosted classes are all in the log.
fn moving_source_net(ctx: &SimCtx) -> (Net, usize) {
    let mut room = Room::open_space();
    let shape = Segment::new(Point::new(1.0, 2.0), Point::new(1.0, 3.0));
    let walker = room.add_obstacle(shape, Material::Human, "walker");
    let mut net = Net::with_ctx(Environment::new(room), quiet(7), ctx);
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
    // Discovery sweeps first (quasi-omni sub-elements), then the trained
    // data phase.
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

#[test]
fn moving_source_and_walking_blocker_match_oracle() {
    let ctx = SimCtx::new();
    let (net, dock) = moving_source_net(&ctx);
    let classes: std::collections::HashSet<u8> = net
        .txlog()
        .in_window(SimTime::ZERO, net.now())
        .map(|e| e.class.as_u8())
        .collect();
    for class in [
        FrameClass::Data,
        FrameClass::Beacon,
        FrameClass::DiscoverySub,
    ] {
        assert!(
            classes.contains(&class.as_u8()),
            "{class:?} missing from the log"
        );
    }
    let poses: std::collections::HashSet<u64> = net
        .txlog()
        .in_window(SimTime::ZERO, net.now())
        .filter(|e| e.src == dock)
        .map(|e| e.src_position.y.to_bits())
        .collect();
    assert!(poses.len() >= 2, "the dock must transmit from both poses");

    check_window(
        "whole run",
        &net,
        dock,
        Angle::ZERO,
        SimTime::ZERO,
        net.now(),
    );
    check_window(
        "across the move",
        &net,
        dock,
        Angle::ZERO,
        SimTime::from_millis(8),
        SimTime::from_millis(13),
    );
}

#[test]
fn frames_straddling_both_window_edges_match_oracle() {
    let ctx = SimCtx::new();
    let (net, dock) = moving_source_net(&ctx);
    let data: Vec<&TxLogEntry> = net
        .txlog()
        .in_window(SimTime::ZERO, net.now())
        .filter(|e| e.src == dock && e.class == FrameClass::Data)
        .collect();
    assert!(data.len() > 20, "{} data frames", data.len());
    // Open the window inside one data frame and close it inside a later
    // one, so both edge frames are clipped in the trace.
    let (first, last) = (data[3], data[data.len() - 4]);
    let from = first.start + SimDuration::from_nanos(1);
    let to = last.end - SimDuration::from_nanos(1);
    assert!(first.end > from && last.start < to);
    check_window("straddling", &net, dock, Angle::ZERO, from, to);
    let tap = TapConfig::waveguide(Point::new(0.3, 0.5), Angle::from_degrees(-90.0));
    let trace = replay_trace(&net, &tap, from, to);
    let segs = trace.segments();
    assert!(segs.iter().any(|s| s.start == from), "left edge clipped");
    assert!(segs.iter().any(|s| s.end == to), "right edge clipped");
}

#[test]
fn wihd_boosted_beacons_and_video_match_oracle() {
    let ctx = SimCtx::new();
    let mut r = reflection_room(&ctx, RoomSystem::Wihd, quiet(11));
    r.net.run_until(SimTime::from_millis(30));
    let classes: std::collections::HashSet<u8> = r
        .net
        .txlog()
        .in_window(SimTime::ZERO, r.net.now())
        .map(|e| e.class.as_u8())
        .collect();
    for class in [FrameClass::WihdData, FrameClass::WihdBeacon] {
        assert!(
            classes.contains(&class.as_u8()),
            "{class:?} missing from the log"
        );
    }
    let now = r.net.now();
    check_window(
        "wihd",
        &r.net,
        r.tx,
        Angle::from_degrees(180.0),
        SimTime::ZERO,
        now,
    );
}

#[test]
fn configurations_differing_only_in_boost_or_orientation_match_oracle() {
    // The MAC never sends a boosted and an unboosted class on the same
    // (pose, pattern), nor turns a device without moving it, so append
    // such frames to a real log: copies of the dock's early data frames
    // relabelled as boosted training, turned by 30° in place, and left
    // as they are, interleaved after the run.
    let ctx = SimCtx::new();
    let (mut net, dock) = moving_source_net(&ctx);
    let data: Vec<TxLogEntry> = net
        .txlog()
        .in_window(SimTime::ZERO, SimTime::from_millis(10))
        .filter(|e| e.src == dock && e.class == FrameClass::Data)
        .take(12)
        .copied()
        .collect();
    let from = net.now();
    let mut t = from;
    for (i, e) in data.iter().enumerate() {
        let mut copy = *e;
        match i % 3 {
            0 => copy.class = FrameClass::Training,
            1 => copy.src_orientation = copy.src_orientation + Angle::from_degrees(30.0),
            _ => {}
        }
        let airtime = e.end - e.start;
        copy.start = t;
        copy.end = t + airtime;
        copy.seq = u64::MAX / 2 + i as u64;
        t = copy.end + SimDuration::from_micros(3);
        net.txlog_mut().push(copy).expect("log accepts the copy");
    }
    check_window("appended", &net, dock, Angle::ZERO, from, t);
    check_window("whole log", &net, dock, Angle::ZERO, SimTime::ZERO, t);
}

#[test]
fn empty_window_matches_oracle() {
    let ctx = SimCtx::new();
    let (net, dock) = moving_source_net(&ctx);
    let from = net.now() + SimDuration::from_millis(5);
    let to = from + SimDuration::from_millis(5);
    assert_eq!(net.txlog().in_window(from, to).count(), 0);
    check_window("empty", &net, dock, Angle::ZERO, from, to);
    let tap = TapConfig::horn(Point::new(3.2, 0.0), Angle::from_degrees(180.0));
    assert!(mmwave_core::replay::mean_data_power_dbm(&net, &tap, dock, from, to).is_none());
    let scan = measure_pattern(&net, dock, Angle::ZERO, 3.2, 5, from, to);
    assert!(scan.iter().all(|p| p.power_dbm == -120.0));
    let scan = measure_discovery_pattern(&net, dock, 0, Angle::ZERO, 3.2, 5, from, to);
    assert!(scan.iter().all(|p| p.power_dbm == -120.0));
}
