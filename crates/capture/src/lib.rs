//! # mmwave-capture — the measurement methodology, reimplemented
//!
//! The paper's central methodological contribution is extracting protocol-,
//! beam- and interference-level insight from devices that expose *nothing*:
//! a Vubiq 60 GHz down-converter feeds an oscilloscope, the captured
//! amplitude traces are undersampled (no decoding possible!), and all
//! analysis works on **timing and amplitude alone** (§3.1). This crate
//! reimplements that pipeline:
//!
//! * [`trace`] — signal traces in two forms: exact segment lists (what the
//!   simulation knows) and sampled waveforms (what the oscilloscope sees).
//! * [`vubiq`] — the receiver front-end: dBm→volts mapping, noise floor,
//!   and the two antenna options (25 dBi horn / open waveguide).
//! * [`detect`] — the threshold-based frame detector and the busy/idle
//!   link-utilization estimator used for Figs. 11, 21 and 22.
//! * [`classify`] — amplitude clustering that separates the two link
//!   directions (the notebook-lid reflection trick of §3.2) and the
//!   short/long frame split of Figs. 9 and 10.
//! * [`scan`] — the mechanical procedures: the 100-position semicircle
//!   beam-pattern scan (Fig. 2) and the rotating angular-profile scan
//!   (Figs. 18–20), both generic over a "measure power here, looking
//!   there" closure so they run against any channel model.

//! ## Example
//!
//! ```
//! use mmwave_capture::{detect_frames, DetectorConfig, SignalTrace, VubiqReceiver};
//! use mmwave_capture::trace::SegmentTag;
//! use mmwave_sim::rng::SimRng;
//! use mmwave_sim::time::SimTime;
//!
//! // Record one frame with the open waveguide, undersample it, detect it.
//! let rx = VubiqReceiver::with_waveguide();
//! let mut trace = rx.begin_capture(SimTime::ZERO, SimTime::from_millis(1));
//! rx.record(&mut trace, SimTime::from_micros(100), SimTime::from_micros(120),
//!           -50.0, SegmentTag { source: 0, class: 3 });
//! let (period, samples) = trace.sample(1e8, &mut SimRng::root(1).stream("scope"));
//! let frames = detect_frames(&samples, period, SimTime::ZERO, trace.noise_rms_v,
//!                            &DetectorConfig::default());
//! assert_eq!(frames.len(), 1);
//! ```

pub mod classify;
pub mod detect;
pub mod scan;
pub mod trace;
pub mod vubiq;

pub use classify::{split_by_amplitude, AmplitudeClass};
pub use detect::{
    detect_frames, detect_frames_reference, utilization, DetectedFrame, DetectorConfig,
};
pub use scan::{angular_profile, look_directions, semicircle_scan, AngularProfile, ScanPoint};
pub use trace::{SampleScratch, SignalTrace, TraceSegment};
pub use vubiq::VubiqReceiver;
