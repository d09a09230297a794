//! Replaying a transmission log into oscilloscope traces.
//!
//! The MAC records *what was on the air*; this module computes *what a
//! Vubiq at a given position would have seen*: each logged transmission's
//! incident power at the tap (through the channel model, with the actual
//! transmit pattern and the tap's antenna), converted to volts by the
//! receiver model. The result is a [`SignalTrace`] that the capture
//! crate's detectors consume — the exact pipeline of §3.2.

use mmwave_capture::trace::SegmentTag;
use mmwave_capture::{SignalTrace, VubiqReceiver};
use mmwave_channel::RadioNode;
use mmwave_geom::{Angle, Point, PropPath};
use mmwave_mac::{Net, PatKey, TxLogEntry};
use mmwave_phy::{db_to_lin, lin_to_db};
use mmwave_sim::time::SimTime;
use std::collections::HashMap;

/// Where the capture equipment sits and what it points at.
#[derive(Clone, Debug)]
pub struct TapConfig {
    /// Tap position.
    pub position: Point,
    /// Azimuth the antenna boresight faces.
    pub orientation: Angle,
    /// The receiver front end (horn or waveguide, gain setting).
    pub receiver: VubiqReceiver,
}

impl TapConfig {
    /// A horn-equipped tap at `position` looking along `orientation`.
    pub fn horn(position: Point, orientation: Angle) -> TapConfig {
        TapConfig {
            position,
            orientation,
            receiver: VubiqReceiver::with_horn(),
        }
    }

    /// An open-waveguide tap (protocol analysis).
    pub fn waveguide(position: Point, orientation: Angle) -> TapConfig {
        TapConfig {
            position,
            orientation,
            receiver: VubiqReceiver::with_waveguide(),
        }
    }
}

/// The logged frames of a window, grouped by transmit configuration.
///
/// A frame's incident power at a tap depends only on its source, the pose
/// logged with it (scenario mobility moves devices mid-run), its antenna
/// pattern and the control-power boost of its class. Frames that agree on
/// all of these form one group. Groups are numbered in first-seen log
/// order and each frame keeps its group index, so a tap costs one ray
/// trace and one gain sum per group while per-frame values still fold in
/// log order — bit-identical to replaying every frame on its own. Groups
/// that share a source position also share its ray trace.
pub(crate) struct TxGroups<'a> {
    net: &'a Net,
    /// Frames in log order, each with its group index.
    frames: Vec<(&'a TxLogEntry, usize)>,
    groups: Vec<TxGroup>,
    /// Distinct source positions, in first-seen order.
    origins: Vec<Point>,
}

/// One distinct transmit configuration of a [`TxGroups`].
#[derive(Debug)]
pub(crate) struct TxGroup {
    /// Transmitting device.
    pub src: usize,
    /// The source node at its logged position and orientation.
    pub node: RadioNode,
    /// Antenna configuration used.
    pub pattern: PatKey,
    /// Control-power boost of the frames' class, dB.
    pub boost_db: f64,
    /// Index of the group's position in `TxGroups::origins`.
    origin: usize,
}

impl<'a> TxGroups<'a> {
    /// Group `entries`, which must come in log order.
    pub fn new(net: &'a Net, entries: impl IntoIterator<Item = &'a TxLogEntry>) -> TxGroups<'a> {
        let mut index: HashMap<(usize, [u64; 3], PatKey, u64), usize> = HashMap::new();
        let mut origin_index: HashMap<[u64; 2], usize> = HashMap::new();
        let mut frames = Vec::new();
        let mut groups = Vec::new();
        let mut origins = Vec::new();
        for e in entries {
            let boost_db = control_boost(net, e);
            let pose = [
                e.src_position.x.to_bits(),
                e.src_position.y.to_bits(),
                e.src_orientation.radians().to_bits(),
            ];
            let key = (e.src, pose, e.pattern, boost_db.to_bits());
            let g = *index.entry(key).or_insert_with(|| {
                let mut node = net.device(e.src).node.clone();
                node.position = e.src_position;
                node.orientation = e.src_orientation;
                let origin = *origin_index.entry([pose[0], pose[1]]).or_insert_with(|| {
                    origins.push(e.src_position);
                    origins.len() - 1
                });
                groups.push(TxGroup {
                    src: e.src,
                    node,
                    pattern: e.pattern,
                    boost_db,
                    origin,
                });
                groups.len() - 1
            });
            frames.push((e, g));
        }
        TxGroups {
            net,
            frames,
            groups,
            origins,
        }
    }

    /// The *data-class* frames `src` sent over `[from, to)` — what §3.2's
    /// beam-pattern methodology averages.
    pub fn data_frames(net: &'a Net, src: usize, from: SimTime, to: SimTime) -> TxGroups<'a> {
        use mmwave_mac::FrameClass::{Data, WihdData};
        TxGroups::new(
            net,
            net.txlog()
                .in_window(from, to)
                .filter(|e| e.src == src && matches!(e.class, Data | WihdData)),
        )
    }

    /// The distinct transmit configurations, in first-seen log order.
    pub fn groups(&self) -> &[TxGroup] {
        &self.groups
    }

    /// The frames in log order, each with its index into [`Self::groups`].
    pub fn frames(&self) -> impl Iterator<Item = (&'a TxLogEntry, usize)> + '_ {
        self.frames.iter().copied()
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True if the window holds no selected frame.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Ray-trace from every group's logged position to `rx`, once per
    /// distinct position, and call `f(index, group, paths)` for each group
    /// in order.
    pub fn trace_to(&self, rx: Point, mut f: impl FnMut(usize, &TxGroup, &[PropPath])) {
        let traced: Vec<Vec<PropPath>> = self
            .origins
            .iter()
            .map(|&at| self.net.env.paths(at, rx))
            .collect();
        for (i, g) in self.groups.iter().enumerate() {
            f(i, g, &traced[g.origin]);
        }
    }

    /// Incident power (dBm) of each group at the tap, through the channel
    /// model with the actual transmit pattern and the tap's antenna.
    pub fn incident_dbm(&self, tap: &TapConfig) -> Vec<f64> {
        let net = self.net;
        let probe = RadioNode::new(usize::MAX - 7, "vubiq", tap.position, tap.orientation);
        let mut out = Vec::with_capacity(self.groups.len());
        self.trace_to(tap.position, |_, g, paths| {
            let dev = net.device(g.src);
            let tx_pattern = dev.pattern(g.pattern);
            let lin: f64 = paths
                .iter()
                .map(|path| {
                    let ga = g.node.gain_toward(tx_pattern, path.departure);
                    let gb = probe.gain_toward(&tap.receiver.antenna, path.arrival);
                    db_to_lin(
                        net.env.budget.rx_power_dbm(ga, gb, path) + dev.tx_power_offset_db
                            - net.env.extra_loss_db
                            + g.boost_db,
                    )
                })
                .sum();
            out.push(lin_to_db(lin));
        });
        out
    }

    /// Average power (dBm) the tap reads back from the recorded amplitude
    /// of every frame, or `None` without frames.
    pub fn mean_recorded_dbm(&self, tap: &TapConfig) -> Option<f64> {
        let rx = &tap.receiver;
        let lin: Vec<f64> = self
            .incident_dbm(tap)
            .into_iter()
            .map(|dbm| db_to_lin(rx.volts_to_power_dbm(rx.power_to_volts(dbm).max(1e-9))))
            .collect();
        let mut lin_sum = 0.0;
        for &(_, g) in &self.frames {
            lin_sum += lin[g];
        }
        let n = self.frames.len();
        (n > 0).then(|| lin_to_db(lin_sum / n as f64))
    }
}

/// Replay the net's transmission log over `[from, to)` into a trace at
/// the tap. Transmissions below the receiver noise floor are still
/// recorded (at their tiny amplitude); the detector decides visibility.
pub fn replay_trace(net: &Net, tap: &TapConfig, from: SimTime, to: SimTime) -> SignalTrace {
    let frames = TxGroups::new(net, net.txlog().in_window(from, to));
    let dbm = frames.incident_dbm(tap);
    let mut trace = tap.receiver.begin_capture(from, to);
    for (e, g) in frames.frames() {
        tap.receiver.record(
            &mut trace,
            e.start,
            e.end,
            dbm[g],
            SegmentTag {
                source: e.src,
                class: e.class.as_u8(),
            },
        );
    }
    trace
}

/// Control/beacon/discovery frames ride with extra power (§3.2); the replay
/// must apply the same boost the medium did.
fn control_boost(net: &Net, e: &TxLogEntry) -> f64 {
    use mmwave_mac::FrameClass::*;
    match e.class {
        Beacon | DiscoverySub | WihdBeacon | Training => net.config().control_power_offset_db,
        _ => 0.0,
    }
}

/// Incident power (dBm) of one logged transmission at a tap.
pub fn incident_power_dbm(net: &Net, tap: &TapConfig, e: &TxLogEntry) -> f64 {
    TxGroups::new(net, [e]).incident_dbm(tap)[0]
}

/// Average incident power (dBm) of logged *data-class* frames at the tap —
/// the "signal strength from data frames only" average of §3.2's beam
/// pattern methodology. Returns `None` if no matching frame is in window.
pub fn mean_data_power_dbm(
    net: &Net,
    tap: &TapConfig,
    src: usize,
    from: SimTime,
    to: SimTime,
) -> Option<f64> {
    TxGroups::data_frames(net, src, from, to).mean_recorded_dbm(tap)
}

/// A loaded dock→laptop link with a walking blocker crossing the upper
/// half of the room while the dock hops from (0, 0) to (0, 4) at
/// t = 10 ms (still facing the laptop from its new spot); run to 20 ms.
/// Returns the net and the dock's index.
#[cfg(test)]
pub(crate) fn scripted_motion_net(ctx: &mmwave_sim::ctx::SimCtx) -> (Net, usize) {
    use mmwave_channel::Environment;
    use mmwave_geom::{Material, Room, Segment, Vec2};
    use mmwave_mac::{Device, NetConfig, Scenario, WorldMutation};
    use mmwave_sim::time::SimDuration;

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
        crate::scenarios::seeds::DOCK_A,
    ));
    let laptop = net.add_device(Device::wigig_laptop(
        ctx,
        "Laptop",
        Point::new(2.0, 0.0),
        Angle::from_degrees(180.0),
        crate::scenarios::seeds::LAPTOP_A,
    ));
    net.associate_instantly(dock, laptop);
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
    for k in 1..=20u64 {
        for i in 0..60u64 {
            net.push_mpdu(dock, 1500, k * 100 + i);
        }
        net.run_until(SimTime::from_millis(k));
    }
    (net, dock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{point_to_point, seeds};
    use mmwave_mac::NetConfig;
    use mmwave_sim::ctx::SimCtx;

    fn quiet(seed: u64) -> NetConfig {
        NetConfig {
            seed,
            enable_fading: false,
            ..NetConfig::default()
        }
    }

    #[test]
    fn replay_produces_segments_for_active_link() {
        let mut p = point_to_point(&SimCtx::new(), 2.0, quiet(1));
        for i in 0..20u64 {
            p.net.push_mpdu(p.dock, 1500, i);
        }
        p.net.run_until(SimTime::from_millis(10));
        let tap = TapConfig::waveguide(Point::new(1.0, 0.6), Angle::from_degrees(-90.0));
        let trace = replay_trace(&p.net, &tap, SimTime::ZERO, SimTime::from_millis(10));
        assert!(
            trace.segments().len() > 20,
            "{} segments",
            trace.segments().len()
        );
        // The trace covers exactly the log window.
        assert_eq!(trace.window_start, SimTime::ZERO);
        assert_eq!(trace.window_end, SimTime::from_millis(10));
    }

    #[test]
    fn horn_pointing_matters() {
        let mut p = point_to_point(&SimCtx::new(), 2.0, quiet(2));
        for i in 0..20u64 {
            p.net.push_mpdu(p.dock, 1500, i);
        }
        p.net.run_until(SimTime::from_millis(5));
        let at = Point::new(1.0, 3.0);
        // The 10°-HPBW horn must point *at* a device, not vaguely at the
        // link: aim at the dock (azimuth of (0,0) from (1,3) ≈ −108.4°).
        let toward = TapConfig::horn(at, Angle::from_degrees(-108.4));
        let away = TapConfig::horn(at, Angle::from_degrees(71.6));
        let t1 = replay_trace(&p.net, &toward, SimTime::ZERO, SimTime::from_millis(5));
        let t2 = replay_trace(&p.net, &away, SimTime::ZERO, SimTime::from_millis(5));
        let max1 = t1
            .segments()
            .iter()
            .map(|s| s.amplitude_v)
            .fold(0.0, f64::max);
        let max2 = t2
            .segments()
            .iter()
            .map(|s| s.amplitude_v)
            .fold(0.0, f64::max);
        assert!(max1 > 5.0 * max2, "toward {max1} V vs away {max2} V");
    }

    #[test]
    fn mean_data_power_sees_only_data() {
        let mut p = point_to_point(&SimCtx::new(), 2.0, quiet(3));
        // Idle link: only beacons → no data power.
        p.net.run_until(SimTime::from_millis(10));
        let tap = TapConfig::waveguide(Point::new(1.0, 0.5), Angle::from_degrees(-90.0));
        assert!(mean_data_power_dbm(
            &p.net,
            &tap,
            p.dock,
            SimTime::ZERO,
            SimTime::from_millis(10)
        )
        .is_none());
        // Push data: now the average exists and is sane.
        for i in 0..10u64 {
            p.net.push_mpdu(p.dock, 1500, i);
        }
        p.net.run_until(SimTime::from_millis(20));
        let dbm = mean_data_power_dbm(
            &p.net,
            &tap,
            p.dock,
            SimTime::from_millis(10),
            SimTime::from_millis(20),
        )
        .expect("data frames present");
        assert!((-90.0..=-20.0).contains(&dbm), "{dbm}");
    }

    #[test]
    fn replay_tracks_scripted_source_motion() {
        // A walking-blocker run whose *source* is also scripted to move:
        // every segment must replay from the pose logged at transmission
        // time. Before the pose-keyed cache, the whole window replayed
        // from the device's final position, so frames sent next to the
        // tap came out as weak as frames sent from across the room.
        let ctx = SimCtx::new();
        let (net, dock) = scripted_motion_net(&ctx);

        // Tap next to the dock's *original* position.
        let tap = TapConfig::waveguide(Point::new(0.3, 0.5), Angle::from_degrees(-90.0));
        let early = mean_data_power_dbm(&net, &tap, dock, SimTime::ZERO, SimTime::from_millis(10))
            .expect("data before the move");
        let late = mean_data_power_dbm(
            &net,
            &tap,
            dock,
            SimTime::from_millis(11),
            SimTime::from_millis(20),
        )
        .expect("data after the move");
        assert!(
            early > late + 10.0,
            "frames sent beside the tap must replay loud: early {early} dBm, late {late} dBm"
        );
    }

    #[test]
    fn seeds_are_distinct() {
        // Guard against accidental seed collisions across device roles.
        let all = [
            seeds::DOCK_A,
            seeds::DOCK_B,
            seeds::LAPTOP_A,
            seeds::LAPTOP_B,
            seeds::WIHD_TX,
            seeds::WIHD_RX,
        ];
        let set: std::collections::HashSet<u64> = all.into_iter().collect();
        assert_eq!(set.len(), all.len());
    }
}
