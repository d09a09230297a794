//! Rotation-scan angular profiles (§3.2, Figs. 4 and 18–20).
//!
//! The Vubiq sits on a programmable rotation stage at a probe position and
//! sweeps a highly directional horn through the full circle; incident
//! power per look direction forms the angular profile. Against an *active
//! link*, the profile mixes both link directions weighted by their
//! airtime, exactly as the paper's dwell-and-average procedure does.

use crate::replay::TxGroups;
use mmwave_capture::scan::{look_directions, AngularProfile};
use mmwave_geom::{Angle, Point};
use mmwave_mac::Net;
use mmwave_phy::{db_to_lin, lin_to_db};
use mmwave_sim::time::SimTime;
use std::collections::HashMap;

/// Measure the angular profile at `probe`: for each of `n_dirs` look
/// directions, the airtime-weighted average incident power of every
/// logged transmission in the window. A one-probe [`measure_profiles`].
pub fn measure_profile(
    net: &Net,
    probe: Point,
    n_dirs: usize,
    from: SimTime,
    to: SimTime,
) -> AngularProfile {
    let mut profiles = measure_profiles(net, &[probe], n_dirs, from, to);
    profiles.pop().expect("one profile per probe")
}

/// Measure the angular profile at each of `probes` over one window, as
/// [`measure_profile`] does for a single probe.
///
/// Implementation note: the log is collapsed once into the replay's
/// transmit-configuration groups ([`TxGroups`]: source, logged pose,
/// pattern, control boost) with their airtime. At each probe, every group
/// contributes one component per ray-traced path (the trace is shared by
/// groups at one position): its arrival azimuth and its linear power
/// *without* the horn gain, scaled by the group's airtime share. The
/// horn's receive gain depends only on the arrival and the look, so it is
/// evaluated once per distinct arrival (a row over all looks), and each
/// look folds `base · row[look]` over the components in order — the same
/// additions, in the same order, as summing the components look by look.
pub fn measure_profiles(
    net: &Net,
    probes: &[Point],
    n_dirs: usize,
    from: SimTime,
    to: SimTime,
) -> Vec<AngularProfile> {
    let frames = TxGroups::new(net, net.txlog().in_window(from, to));
    // Airtime per group, summed in log order.
    let mut airtime = vec![0.0; frames.groups().len()];
    for (e, g) in frames.frames() {
        airtime[g] += (e.end - e.start).as_secs_f64();
    }
    let total_time: f64 = airtime.iter().sum();
    let horn = mmwave_phy::horn_25dbi();
    let looks = look_directions(n_dirs);
    // Per probe; reused across probes.
    let mut components: Vec<(Angle, f64)> = Vec::new();
    // Linear horn gain toward every look, one row of `n_dirs` per
    // distinct arrival, indexed by the arrival's bits.
    let mut rows: Vec<f64> = Vec::new();
    let mut row_of: HashMap<u64, usize> = HashMap::new();
    let mut lin = vec![0.0; n_dirs];
    probes
        .iter()
        .map(|&probe| {
            components.clear();
            frames.trace_to(probe, |i, g, paths| {
                let t = airtime[i];
                let dev = net.device(g.src);
                let tx_pattern = dev.pattern(g.pattern);
                for path in paths {
                    let ga = g.node.gain_toward(tx_pattern, path.departure);
                    let dbm = net.env.budget.rx_power_dbm(ga, 0.0, path)
                        + dev.tx_power_offset_db
                        + g.boost_db
                        - net.env.extra_loss_db;
                    components.push((path.arrival, db_to_lin(dbm) * t / total_time.max(1e-12)));
                }
            });
            if components.is_empty() {
                return AngularProfile::from_powers(vec![-120.0; n_dirs]);
            }
            rows.clear();
            row_of.clear();
            // `f64::sum` starts from −0.0.
            lin.fill(-0.0);
            for &(arrival, base) in &components {
                let r = *row_of
                    .entry(arrival.radians().to_bits())
                    .or_insert_with(|| {
                        rows.extend(
                            looks
                                .iter()
                                .map(|&look| db_to_lin(horn.gain_dbi(arrival.diff(look)))),
                        );
                        rows.len() / n_dirs - 1
                    });
                let row = &rows[r * n_dirs..(r + 1) * n_dirs];
                for (acc, gain) in lin.iter_mut().zip(row) {
                    *acc += base * gain;
                }
            }
            AngularProfile::from_powers(lin.iter().map(|&l| lin_to_db(l)).collect())
        })
        .collect()
}

/// Attribution helpers: expected arrival directions at a probe.
pub struct Expected {
    /// Direction towards the transmitter (LoS).
    pub toward_tx: Angle,
    /// Direction towards the receiver (its ACK/beacon traffic).
    pub toward_rx: Angle,
}

/// Compute the LoS arrival directions at `probe` for a TX/RX pair.
pub fn expected_directions(net: &Net, probe: Point, tx: usize, rx: usize) -> Expected {
    let t = net.device(tx).node.position;
    let r = net.device(rx).node.position;
    Expected {
        toward_tx: Angle::from_radians((t - probe).angle()),
        toward_rx: Angle::from_radians((r - probe).angle()),
    }
}

/// Lobes of a profile that do **not** point at either link endpoint —
/// the paper's indicator of wall reflections ("additional lobes … do not
/// point to any of the devices in the room").
pub fn unattributed_lobes(
    profile: &AngularProfile,
    expected: &Expected,
    tolerance: f64,
    min_prominence_db: f64,
    max_below_peak_db: f64,
) -> Vec<Angle> {
    let pattern = profile.as_pattern();
    let peak = pattern.peak().gain_dbi;
    pattern
        .lobes(min_prominence_db)
        .into_iter()
        .filter(|l| l.gain_dbi >= peak - max_below_peak_db)
        .map(|l| l.direction)
        .filter(|d| {
            d.distance(expected.toward_tx) > tolerance && d.distance(expected.toward_rx) > tolerance
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{reflection_room, RoomSystem};
    use mmwave_mac::NetConfig;
    use mmwave_sim::ctx::SimCtx;

    #[test]
    fn profile_of_active_wigig_link_sees_both_endpoints() {
        let mut r = reflection_room(
            &SimCtx::new(),
            RoomSystem::Wigig,
            NetConfig {
                seed: 5,
                enable_fading: false,
                ..NetConfig::default()
            },
        );
        // Load the link so data flows (laptop is the transmitter).
        for i in 0..2000u64 {
            r.net.push_mpdu(r.tx, 1500, i);
        }
        r.net.run_until(SimTime::from_millis(40));
        let probe = r.layout.probe('A');
        let profile = measure_profile(&r.net, probe, 120, SimTime::ZERO, SimTime::from_millis(40));
        let exp = expected_directions(&r.net, probe, r.tx, r.rx);
        // Lobes towards the transmitter and the receiver (§4.3: "one
        // pointing to the transmitter and one pointing to the receiver").
        assert!(
            profile.has_lobe_toward(exp.toward_tx, 20f64.to_radians(), 1.0, 20.0),
            "no TX lobe"
        );
        assert!(
            profile.has_lobe_toward(exp.toward_rx, 20f64.to_radians(), 1.0, 20.0),
            "no RX lobe"
        );
    }

    #[test]
    fn profile_tracks_scripted_source_motion() {
        // The dock hops from (0, 0) to (0, 4) at 10 ms. Frames sent before
        // the hop must arrive from the original spot, not from wherever
        // the dock ended up.
        let (net, _dock) = crate::replay::scripted_motion_net(&SimCtx::new());
        let probe = Point::new(1.0, 0.3);
        let toward = |p: Point| Angle::from_radians((p - probe).angle());
        let (old_spot, new_spot) = (toward(Point::new(0.0, 0.0)), toward(Point::new(0.0, 4.0)));
        let level = |profile: &AngularProfile, dir: Angle| {
            let p = profile
                .points()
                .iter()
                .min_by(|a, b| a.angle.distance(dir).total_cmp(&b.angle.distance(dir)))
                .expect("points");
            p.power_dbm - profile.peak_dbm()
        };
        let early = measure_profile(&net, probe, 120, SimTime::ZERO, SimTime::from_millis(10));
        let late = measure_profile(&net, probe, 120, SimTime::from_millis(11), net.now());
        for (name, profile, here, gone) in [
            ("before", &early, old_spot, new_spot),
            ("after", &late, new_spot, old_spot),
        ] {
            let (loud, quiet) = (level(profile, here), level(profile, gone));
            assert!(
                loud > -10.0 && quiet < -20.0,
                "{name} the hop: {loud:.1} dB toward the dock's spot, {quiet:.1} dB toward the other"
            );
        }
    }

    #[test]
    fn expected_directions_geometry() {
        let r = reflection_room(
            &SimCtx::new(),
            RoomSystem::Wigig,
            NetConfig {
                seed: 6,
                enable_fading: false,
                ..NetConfig::default()
            },
        );
        let probe = r.layout.probe('C'); // upper row, left third
        let exp = expected_directions(&r.net, probe, r.tx, r.rx);
        // TX is to the right of C, RX to the left.
        assert!(exp.toward_tx.degrees().abs() < 45.0, "{}", exp.toward_tx);
        assert!(exp.toward_rx.degrees().abs() > 135.0, "{}", exp.toward_rx);
    }
}
