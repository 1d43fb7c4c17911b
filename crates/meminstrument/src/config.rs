//! Instrumentation configuration, mirroring the artifact's command-line
//! flags (§A.6 of the paper), plus the typed [`Instrument`] builder that
//! `cli`, `bench`, and `fuzz` share as the single entry point.

use std::fmt;
use std::str::FromStr;

use mir::pipeline::{ExtensionPoint, OptLevel};

use crate::runtime::BuildOptions;

/// Which memory-safety mechanism to apply (`-mi-config=`).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Mechanism {
    /// SoftBound: disjoint metadata (trie + shadow stack).
    SoftBound,
    /// Low-Fat Pointers: size-class-partitioned address space.
    LowFat,
    /// Red-zone shadow memory around allocations (AddressSanitizer-style,
    /// §2.1 of the paper). Detects adjacent overflows only: an access that
    /// jumps past the red zone into another allocation goes unnoticed —
    /// this is the class of incompleteness that motivated the paper's
    /// choice of SoftBound and Low-Fat Pointers.
    RedZone,
}

impl Mechanism {
    /// Lower-case name used in reports and violation messages.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::SoftBound => "softbound",
            Mechanism::LowFat => "lowfat",
            Mechanism::RedZone => "redzone",
        }
    }
}

impl fmt::Display for Mechanism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Mechanism {
    type Err = String;

    /// Accepts the report name or its CLI short form (`sb`, `lf`, `rz`).
    fn from_str(s: &str) -> Result<Mechanism, String> {
        match s {
            "softbound" | "sb" => Ok(Mechanism::SoftBound),
            "lowfat" | "lf" => Ok(Mechanism::LowFat),
            "redzone" | "rz" => Ok(Mechanism::RedZone),
            other => Err(format!("unknown mechanism `{other}`")),
        }
    }
}

/// What the instrumentation generates (`-mi-mode=`).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MiMode {
    /// Full instrumentation: metadata propagation + dereference checks.
    Full,
    /// `geninvariants`: only metadata propagation and invariant
    /// establishment — the configuration behind the "metadata"/"invariants
    /// only" series of Figures 10 and 11.
    GenInvariantsOnly,
}

/// Which of the §5.3 static check optimizations run.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct OptConfig {
    /// Dominance-based redundant check elimination (`-mi-opt-dominance`).
    pub dominance: bool,
    /// Hoist loop-invariant checks into the loop preheader.
    pub loop_hoist: bool,
    /// Widen monotone induction-variable checks into a single preheader
    /// range check covering every byte the loop accesses.
    pub loop_widen: bool,
    /// Interprocedural summary-based check elision (`mir::analysis::ipo`):
    /// drop checks the caller-propagated pointer summary proves in bounds.
    pub ipo: bool,
}

impl Default for OptConfig {
    /// Everything on — the "optimized" configuration of Figures 9–11.
    fn default() -> OptConfig {
        OptConfig { dominance: true, loop_hoist: true, loop_widen: true, ipo: true }
    }
}

impl OptConfig {
    /// No static check optimization at all (the "unoptimized" series).
    pub fn none() -> OptConfig {
        OptConfig { dominance: false, loop_hoist: false, loop_widen: false, ipo: false }
    }

    /// Dominance elimination only, no loop-aware optimization.
    pub fn no_loops() -> OptConfig {
        OptConfig { loop_hoist: false, loop_widen: false, ..OptConfig::default() }
    }

    /// Everything except interprocedural elision — the `-noipo` ladder
    /// rung the differential suite compares against.
    pub fn no_ipo() -> OptConfig {
        OptConfig { ipo: false, ..OptConfig::default() }
    }

    /// Whether any loop-aware optimization is enabled.
    pub fn any_loop_opts(&self) -> bool {
        self.loop_hoist || self.loop_widen
    }
}

/// The instrumentation configuration.
#[derive(Clone, PartialEq, Debug)]
pub struct MiConfig {
    /// The mechanism.
    pub mechanism: Mechanism,
    /// Generation mode.
    pub mode: MiMode,
    /// Static check optimizations (§5.3). This is the "optimized"
    /// configuration of Figures 9–11 when everything is enabled.
    pub opt: OptConfig,
    /// SoftBound: use a wide upper bound for external array declarations
    /// without size information (`-mi-sb-size-zero-wide-upper`, §4.3).
    /// When disabled, such globals get NULL bounds and accesses report
    /// spurious violations.
    pub sb_size_zero_wide_upper: bool,
    /// SoftBound: give pointers minted by `inttoptr` wide bounds
    /// (`-mi-sb-inttoptr-wide-bounds`, §4.4). When disabled they get NULL
    /// bounds.
    pub sb_inttoptr_wide_bounds: bool,
    /// SoftBound: enable the additional safety checks inside libc wrappers
    /// (Figure 6). The paper *disables* these for the runtime comparison
    /// (§5.1.2), so the default is `false`.
    pub sb_wrapper_checks: bool,
    /// SoftBound: narrow bounds to the addressed struct member (Appendix B).
    /// Detects intra-object overflows — and, exactly as the appendix warns,
    /// produces false positives on legal idioms like `&P == &P.x` traversal.
    /// Off by default (the paper argues automatic narrowing is unsound).
    pub sb_narrow_member_bounds: bool,
}

impl MiConfig {
    /// The paper's configuration basis for the given mechanism (§A.6):
    /// full instrumentation, wide-bounds escape hatches on for SoftBound,
    /// wrapper checks off, check optimizations on.
    pub fn new(mechanism: Mechanism) -> MiConfig {
        MiConfig {
            mechanism,
            mode: MiMode::Full,
            opt: OptConfig::default(),
            sb_size_zero_wide_upper: true,
            sb_inttoptr_wide_bounds: true,
            sb_wrapper_checks: false,
            sb_narrow_member_bounds: false,
        }
    }

    /// Same, but without any static check optimization (the "unoptimized"
    /// series of Figures 10/11).
    pub fn unoptimized(mechanism: Mechanism) -> MiConfig {
        MiConfig { opt: OptConfig::none(), ..MiConfig::new(mechanism) }
    }

    /// Metadata/invariant propagation only (the "metadata" series of
    /// Figures 10/11; `-mi-mode=geninvariants`).
    pub fn invariants_only(mechanism: Mechanism) -> MiConfig {
        MiConfig { mode: MiMode::GenInvariantsOnly, ..MiConfig::new(mechanism) }
    }

    /// Whether this configuration runs interprocedural check elision.
    /// Requires full instrumentation with the `ipo` knob on; disabled
    /// under SoftBound member-bound narrowing, whose sub-object bounds
    /// are stricter than the whole-allocation extents the summaries
    /// prove against.
    pub fn uses_ipo(&self) -> bool {
        self.mode == MiMode::Full
            && self.opt.ipo
            && !(self.mechanism == Mechanism::SoftBound && self.sb_narrow_member_bounds)
    }
}

/// Typed, builder-style description of one compilation cell: *what* to
/// instrument ([`MiConfig`], or nothing for the uninstrumented baseline)
/// plus *where and how hard* the surrounding pipeline optimizes
/// ([`BuildOptions`]).
///
/// This is the documented entry point shared by `cli`, `bench`, and
/// `fuzz`; its [`fmt::Display`]/[`FromStr`] pair is the single source of truth
/// for the configuration labels appearing in every report
/// (`softbound@O3@VectorizerStart`, `lowfat-inv@O0@ScalarOptimizerLate`,
/// `baseline@O3@ModuleOptimizerEarly`, …).
///
/// ```
/// use meminstrument::{ExtensionPoint, Instrument, Mechanism, OptConfig};
///
/// let cell = Instrument::mechanism(Mechanism::SoftBound)
///     .at(ExtensionPoint::ScalarOptimizerLate)
///     .opt(OptConfig { dominance: true, loop_hoist: true, ..OptConfig::default() });
/// assert_eq!(cell.to_string(), "softbound@O3@ScalarOptimizerLate");
/// assert_eq!(cell.to_string().parse::<Instrument>().unwrap(), cell);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Instrument {
    config: Option<MiConfig>,
    opts: BuildOptions,
}

impl Instrument {
    /// Instrumentation with `mechanism` at the paper's default pipeline
    /// position (`O3` @ `VectorizerStart`).
    pub fn mechanism(mechanism: Mechanism) -> Instrument {
        Instrument { config: Some(MiConfig::new(mechanism)), opts: BuildOptions::default() }
    }

    /// The uninstrumented baseline at the default pipeline position.
    pub fn baseline() -> Instrument {
        Instrument { config: None, opts: BuildOptions::default() }
    }

    /// Builds from already-assembled parts (`None` config = baseline).
    pub fn from_parts(config: Option<MiConfig>, opts: BuildOptions) -> Instrument {
        Instrument { config, opts }
    }

    /// Sets the extension point the instrumentation is inserted at.
    pub fn at(mut self, ep: ExtensionPoint) -> Instrument {
        self.opts.ep = ep;
        self
    }

    /// Sets the pipeline optimization level.
    pub fn opt_level(mut self, opt: OptLevel) -> Instrument {
        self.opts.opt = opt;
        self
    }

    /// Sets the static check-optimization configuration (ignored for the
    /// baseline).
    pub fn opt(mut self, opt: OptConfig) -> Instrument {
        if let Some(c) = &mut self.config {
            c.opt = opt;
        }
        self
    }

    /// Sets the generation mode (ignored for the baseline).
    pub fn mode(mut self, mode: MiMode) -> Instrument {
        if let Some(c) = &mut self.config {
            c.mode = mode;
        }
        self
    }

    /// Applies arbitrary [`MiConfig`] tweaks (the SoftBound toggles, for
    /// example); a no-op for the baseline.
    pub fn configure(mut self, f: impl FnOnce(&mut MiConfig)) -> Instrument {
        if let Some(c) = &mut self.config {
            f(c);
        }
        self
    }

    /// The instrumentation configuration (`None` for the baseline).
    pub fn mi_config(&self) -> Option<&MiConfig> {
        self.config.as_ref()
    }

    /// The mechanism (`None` for the baseline).
    pub fn mechanism_kind(&self) -> Option<Mechanism> {
        self.config.as_ref().map(|c| c.mechanism)
    }

    /// The pipeline options.
    pub fn build_options(&self) -> BuildOptions {
        self.opts
    }

    /// Whether this is the uninstrumented baseline.
    pub fn is_baseline(&self) -> bool {
        self.config.is_none()
    }
}

/// Accessor of one boolean [`MiConfig`] toggle.
type Toggle = fn(&mut MiConfig) -> &mut bool;

/// The flag tokens of a label, one per [`MiConfig`] toggle that differs
/// from [`MiConfig::new`]: `(token, field, value that renders it)`.
const FLAGS: [(&str, Toggle, bool); 4] = [
    ("wrap", |c| &mut c.sb_wrapper_checks, true),
    ("narrow", |c| &mut c.sb_narrow_member_bounds, true),
    ("sznull", |c| &mut c.sb_size_zero_wide_upper, false),
    ("i2pnull", |c| &mut c.sb_inttoptr_wide_bounds, false),
];

/// The mechanism suffix of a label: how mode and [`OptConfig`] render.
/// Invariants-only cells keep the optimization part after `-inv`, since
/// dominance elimination still runs (and counts) in that mode.
fn opt_suffix(c: &MiConfig) -> String {
    let opt = match (c.opt.dominance, c.opt.loop_hoist, c.opt.loop_widen, c.opt.ipo) {
        (true, true, true, true) => String::new(),
        (false, false, false, false) => "-unopt".into(),
        (true, true, true, false) => "-noipo".into(),
        (true, false, false, true) => "-noloop".into(),
        (false, true, true, true) => "-nodom".into(),
        (d, h, w, i) => format!("-optd{}h{}w{}i{}", d as u8, h as u8, w as u8, i as u8),
    };
    match c.mode {
        MiMode::Full => opt,
        MiMode::GenInvariantsOnly => format!("-inv{opt}"),
    }
}

fn parse_suffix(s: &str) -> Result<(MiMode, OptConfig), String> {
    let (mode, opt) = match s.strip_prefix("-inv") {
        Some(rest) => (MiMode::GenInvariantsOnly, rest),
        None => (MiMode::Full, s),
    };
    let opt = match opt {
        "" => OptConfig::default(),
        "-unopt" => OptConfig::none(),
        "-noipo" => OptConfig::no_ipo(),
        "-noloop" => OptConfig::no_loops(),
        "-nodom" => OptConfig { dominance: false, ..OptConfig::default() },
        _ => {
            let rest =
                opt.strip_prefix("-optd").ok_or_else(|| format!("unknown config suffix `{s}`"))?;
            let bit = |c: u8| match c {
                b'0' => Ok(false),
                b'1' => Ok(true),
                _ => Err(format!("unknown config suffix `{s}`")),
            };
            match rest.as_bytes() {
                [d, b'h', h, b'w', w, b'i', i] => OptConfig {
                    dominance: bit(*d)?,
                    loop_hoist: bit(*h)?,
                    loop_widen: bit(*w)?,
                    ipo: bit(*i)?,
                },
                // Pre-ipo labels: `-optd{d}h{h}w{w}` implied ipo on.
                [d, b'h', h, b'w', w] => OptConfig {
                    dominance: bit(*d)?,
                    loop_hoist: bit(*h)?,
                    loop_widen: bit(*w)?,
                    ipo: true,
                },
                _ => return Err(format!("unknown config suffix `{s}`")),
            }
        }
    };
    Ok((mode, opt))
}

impl fmt::Display for Instrument {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.config {
            None => write!(f, "baseline@{}@{}", self.opts.opt, self.opts.ep),
            Some(c) => {
                write!(f, "{}{}", c.mechanism, opt_suffix(c))?;
                let mut c = c.clone();
                for (token, field, set) in FLAGS {
                    if *field(&mut c) == set {
                        write!(f, "+{token}")?;
                    }
                }
                write!(f, "@{}@{}", self.opts.opt, self.opts.ep)
            }
        }
    }
}

impl FromStr for Instrument {
    type Err = String;

    /// Parses a configuration label of the form
    /// `<mechanism>[-<suffix>][+<flag>…]@<opt level>@<extension point>` (or
    /// `baseline@…`), the inverse of [`fmt::Display`]. Flags name the
    /// [`MiConfig`] toggles that differ from the paper basis (`+wrap`,
    /// `+narrow`, `+sznull`, `+i2pnull`), so two configurations that compile
    /// differently never share a label. Mechanism and extension point
    /// accept their CLI short forms.
    fn from_str(s: &str) -> Result<Instrument, String> {
        let mut parts = s.split('@');
        let (mech_spec, opt, ep) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(o), Some(e), None) => (m, o, e),
            _ => return Err(format!("expected `<config>@<opt level>@<extension point>`: `{s}`")),
        };
        let opts = BuildOptions { opt: opt.parse()?, ep: ep.parse()? };
        if mech_spec == "baseline" || mech_spec == "none" {
            return Ok(Instrument { config: None, opts });
        }
        let mut tokens = mech_spec.split('+');
        let mech_spec = tokens.next().unwrap_or_default();
        // The mechanism name is dash-free, so the first `-` starts the
        // mode/optimization suffix.
        let (mech_str, suffix) = match mech_spec.find('-') {
            Some(i) => mech_spec.split_at(i),
            None => (mech_spec, ""),
        };
        let mechanism: Mechanism = mech_str.parse()?;
        let (mode, opt) = parse_suffix(suffix)?;
        let mut config = MiConfig { mode, opt, ..MiConfig::new(mechanism) };
        for token in tokens {
            let (_, field, set) = FLAGS
                .into_iter()
                .find(|(t, ..)| *t == token)
                .ok_or_else(|| format!("unknown config flag `+{token}` in `{s}`"))?;
            // Each flag renders the non-default value, so finding it
            // already set means the token came twice.
            if *field(&mut config) == set {
                return Err(format!("repeated config flag `+{token}` in `{s}`"));
            }
            *field(&mut config) = set;
        }
        Ok(Instrument { config: Some(config), opts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_basis_defaults() {
        let c = MiConfig::new(Mechanism::SoftBound);
        assert_eq!(c.mode, MiMode::Full);
        assert_eq!(c.opt, OptConfig::default());
        assert!(c.opt.dominance && c.opt.loop_hoist && c.opt.loop_widen);
        assert!(c.sb_size_zero_wide_upper);
        assert!(c.sb_inttoptr_wide_bounds);
        assert!(!c.sb_wrapper_checks, "§5.1.2 disables wrapper checks");
    }

    #[test]
    fn variants() {
        assert_eq!(MiConfig::unoptimized(Mechanism::LowFat).opt, OptConfig::none());
        assert!(!MiConfig::unoptimized(Mechanism::LowFat).opt.any_loop_opts());
        assert_eq!(MiConfig::invariants_only(Mechanism::LowFat).mode, MiMode::GenInvariantsOnly);
        assert_eq!(Mechanism::LowFat.name(), "lowfat");
        assert_eq!(Mechanism::SoftBound.name(), "softbound");
        assert!(OptConfig::no_loops().dominance);
        assert!(!OptConfig::no_loops().any_loop_opts());
        assert!(OptConfig::no_loops().ipo);
        assert!(!OptConfig::no_ipo().ipo);
        assert!(OptConfig::no_ipo().any_loop_opts());
    }

    #[test]
    fn uses_ipo_gating() {
        assert!(MiConfig::new(Mechanism::SoftBound).uses_ipo());
        assert!(MiConfig::new(Mechanism::RedZone).uses_ipo());
        assert!(!MiConfig::unoptimized(Mechanism::LowFat).uses_ipo());
        assert!(!MiConfig::invariants_only(Mechanism::LowFat).uses_ipo());
        let narrow =
            MiConfig { sb_narrow_member_bounds: true, ..MiConfig::new(Mechanism::SoftBound) };
        assert!(!narrow.uses_ipo());
        // Narrowing is SoftBound-only; it must not disable ipo elsewhere.
        let narrow_lf =
            MiConfig { sb_narrow_member_bounds: true, ..MiConfig::new(Mechanism::LowFat) };
        assert!(narrow_lf.uses_ipo());
    }

    #[test]
    fn mechanism_round_trip_and_short_forms() {
        for m in [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone] {
            assert_eq!(m.to_string().parse::<Mechanism>(), Ok(m));
        }
        assert_eq!("sb".parse::<Mechanism>(), Ok(Mechanism::SoftBound));
        assert_eq!("lf".parse::<Mechanism>(), Ok(Mechanism::LowFat));
        assert_eq!("rz".parse::<Mechanism>(), Ok(Mechanism::RedZone));
        assert!("asan".parse::<Mechanism>().is_err());
    }

    #[test]
    fn builder_produces_expected_labels() {
        assert_eq!(Instrument::baseline().to_string(), "baseline@O3@VectorizerStart");
        assert_eq!(
            Instrument::mechanism(Mechanism::SoftBound).to_string(),
            "softbound@O3@VectorizerStart"
        );
        assert_eq!(
            Instrument::mechanism(Mechanism::LowFat).mode(MiMode::GenInvariantsOnly).to_string(),
            "lowfat-inv@O3@VectorizerStart"
        );
        assert_eq!(
            Instrument::mechanism(Mechanism::SoftBound)
                .at(ExtensionPoint::ModuleOptimizerEarly)
                .to_string(),
            "softbound@O3@ModuleOptimizerEarly"
        );
        assert_eq!(
            Instrument::mechanism(Mechanism::RedZone)
                .opt(OptConfig::none())
                .opt_level(OptLevel::O0)
                .to_string(),
            "redzone-unopt@O0@VectorizerStart"
        );
        assert_eq!(
            Instrument::mechanism(Mechanism::LowFat).opt(OptConfig::no_loops()).to_string(),
            "lowfat-noloop@O3@VectorizerStart"
        );
        assert_eq!(
            Instrument::mechanism(Mechanism::SoftBound).opt(OptConfig::no_ipo()).to_string(),
            "softbound-noipo@O3@VectorizerStart"
        );
    }

    #[test]
    fn labels_round_trip() {
        let mut cells: Vec<Instrument> = vec![Instrument::baseline()];
        for m in [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone] {
            for opt in [
                OptConfig::default(),
                OptConfig::none(),
                OptConfig::no_loops(),
                OptConfig::no_ipo(),
                OptConfig { dominance: false, ..OptConfig::default() },
                OptConfig { loop_widen: false, ..OptConfig::default() },
                OptConfig { loop_widen: false, ipo: false, ..OptConfig::default() },
            ] {
                cells.push(
                    Instrument::mechanism(m).opt(opt).at(ExtensionPoint::ScalarOptimizerLate),
                );
            }
            cells.push(
                Instrument::mechanism(m).mode(MiMode::GenInvariantsOnly).opt_level(OptLevel::O0),
            );
        }
        for cell in cells {
            let label = cell.to_string();
            let parsed: Instrument = label.parse().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(parsed, cell, "{label}");
        }
    }

    /// Every cell the `mi` command line can build (`--mech`, `--ep`,
    /// `--O0`, `--mode`, `--no-opt-*`, `--narrow`, `--wrapper-checks`), in
    /// the order the CLI applies the flags.
    fn cli_reachable_cells() -> Vec<Instrument> {
        let mut cells = Vec::new();
        for ep in ExtensionPoint::ALL {
            for level in [OptLevel::O0, OptLevel::O3] {
                cells.push(Instrument::baseline().at(ep).opt_level(level));
                for m in [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone] {
                    for mode in [MiMode::Full, MiMode::GenInvariantsOnly] {
                        for bits in 0..32u8 {
                            let bit = |i: u8| bits & (1 << i) != 0;
                            let opt = OptConfig {
                                dominance: !bit(0),
                                loop_hoist: !bit(1),
                                loop_widen: !bit(1),
                                ipo: !bit(2),
                            };
                            let cell = Instrument::mechanism(m)
                                .mode(mode)
                                .opt(opt)
                                .configure(|c| {
                                    c.sb_narrow_member_bounds = bit(3);
                                    c.sb_wrapper_checks = bit(4);
                                })
                                .at(ep)
                                .opt_level(level);
                            cells.push(cell);
                        }
                    }
                }
            }
        }
        cells
    }

    #[test]
    fn every_cli_reachable_cell_round_trips() {
        let cells = cli_reachable_cells();
        for cell in &cells {
            let label = cell.to_string();
            let parsed: Instrument = label.parse().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(&parsed, cell, "{label}");
        }
        let mut labels: Vec<String> = cells.iter().map(Instrument::to_string).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cells.len(), "two distinct cells share a label");
        let flagged = Instrument::mechanism(Mechanism::SoftBound)
            .configure(|c| {
                c.sb_wrapper_checks = true;
                c.sb_narrow_member_bounds = true;
            })
            .opt(OptConfig::no_loops());
        assert_eq!(flagged.to_string(), "softbound-noloop+wrap+narrow@O3@VectorizerStart");
    }

    #[test]
    fn flags_that_change_compilation_change_the_label() {
        let plain = Instrument::mechanism(Mechanism::SoftBound);
        let mut labels = vec![plain.to_string()];
        for (_, field, set) in FLAGS {
            let cell = plain.clone().configure(|c| *field(c) = set);
            let label = cell.to_string();
            assert_eq!(label.parse::<Instrument>().unwrap(), cell, "{label}");
            labels.push(label);
        }
        let n = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), n, "{labels:?}");
        assert!("sb+bogus@O3@vec".parse::<Instrument>().is_err());
        assert!("sb+wrap+wrap@O3@vec".parse::<Instrument>().is_err());
    }

    #[test]
    fn parse_accepts_short_forms_and_rejects_garbage() {
        let c: Instrument = "sb@O0@vec".parse().unwrap();
        assert_eq!(c.mechanism_kind(), Some(Mechanism::SoftBound));
        assert_eq!(c.build_options().opt, OptLevel::O0);
        assert_eq!(c.build_options().ep, ExtensionPoint::VectorizerStart);
        assert!("sb@O0".parse::<Instrument>().is_err());
        assert!("sb@O1@vec".parse::<Instrument>().is_err());
        assert!("sb-bogus@O0@vec".parse::<Instrument>().is_err());
        assert!("@@".parse::<Instrument>().is_err());
        // `-noipo` round-trips; legacy three-bit labels imply ipo on.
        let c: Instrument = "lf-noipo@O3@vec".parse().unwrap();
        assert_eq!(c.to_string(), "lowfat-noipo@O3@VectorizerStart");
        let legacy: Instrument = "sb-optd1h0w1@O3@vec".parse().unwrap();
        assert_eq!(legacy.to_string(), "softbound-optd1h0w1i1@O3@VectorizerStart");
        assert!("sb-optd1h0w1i2@O3@vec".parse::<Instrument>().is_err());
    }
}
