//! Shared subcommand plumbing: argument splitting, typed option takers
//! that accumulate into an [`EngineConfig`], and the file/delta IO every
//! command repeats. Each `cmd_*` parses with [`EngineCli::parse`], takes
//! the options it understands, calls [`EngineCli::finish_options`] so
//! leftovers are reported, and builds its [`Engine`] session from the
//! collected configuration.

use ipr_core::CyclePolicy;
use ipr_delta::codec::{self, DecodedDelta, Format};
use ipr_delta::diff::{GreedyDiffer, IndexedDiffer};
use ipr_delta::remote::{CdcParams, Chunking, DEFAULT_SIGNATURE_BUDGET};
use ipr_pipeline::{Engine, EngineConfig};

/// Parsed command line of one subcommand plus the engine configuration
/// its flags selected.
pub struct EngineCli {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    config: EngineConfig,
}

impl EngineCli {
    /// Splits `args` into positionals and `--key value` option pairs.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if let Some(key) = a.strip_prefix("--") {
                let value = args
                    .get(i + 1)
                    .ok_or_else(|| format!("option --{key} requires a value"))?;
                options.push((key.to_string(), value.clone()));
                i += 2;
            } else {
                positional.push(args[i].clone());
                i += 1;
            }
        }
        Ok(Self {
            positional,
            options,
            config: EngineConfig::default(),
        })
    }

    /// Exactly `N` positional arguments, or `usage` as the error.
    pub fn positional<const N: usize>(&self, usage: &str) -> Result<[&str; N], String> {
        let strs: Vec<&str> = self.positional.iter().map(String::as_str).collect();
        <[&str; N]>::try_from(strs).map_err(|_| usage.to_string())
    }

    /// No positional arguments at all, or `usage` as the error.
    pub fn no_positional(&self, usage: &str) -> Result<(), String> {
        if self.positional.is_empty() {
            Ok(())
        } else {
            Err(usage.to_string())
        }
    }

    /// Removes and returns `--key`'s value, if present.
    pub fn take(&mut self, key: &str) -> Option<String> {
        let at = self.options.iter().position(|(k, _)| k == key)?;
        Some(self.options.remove(at).1)
    }

    /// Removes `--key` and parses its value with `parse`.
    pub fn take_with<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.take(key).map(|v| parse(&v)).transpose()
    }

    /// `--format F`: recorded as the engine's wire format and returned.
    pub fn take_format(&mut self) -> Result<Option<Format>, String> {
        let format = self.take_with("format", parse_format)?;
        if let Some(f) = format {
            self.config.format = f;
        }
        Ok(format)
    }

    /// `--policy P`: recorded as the engine's cycle-breaking policy.
    pub fn take_policy(&mut self) -> Result<Option<CyclePolicy>, String> {
        let policy = self.take_with("policy", parse_policy)?;
        if let Some(p) = policy {
            self.config.policy = p;
        }
        Ok(policy)
    }

    /// `--block N|auto[:BYTES]` / `--cdc MIN:AVG:MAX`: recorded as the
    /// engine's signature chunking (the two are mutually exclusive).
    /// `auto` is [`Chunking::Auto`], which resolves per reference at
    /// signing time to the smallest power-of-two block whose wire
    /// signature fits the byte budget (docs/REMOTE.md).
    pub fn take_chunking(&mut self) -> Result<Option<Chunking>, String> {
        let block = self.take_with("block", parse_block)?;
        let cdc = self.take_with("cdc", parse_cdc)?;
        if block.is_some() && cdc.is_some() {
            return Err("--block and --cdc are mutually exclusive".into());
        }
        let chunking = block.or(cdc.map(Chunking::Cdc));
        if let Some(c) = chunking {
            c.validate().map_err(|e| e.to_string())?;
            self.config.chunking = c;
        }
        Ok(chunking)
    }

    /// Rejects any option no taker consumed.
    pub fn finish_options(&self) -> Result<(), String> {
        match self.options.first() {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }

    /// The configuration the takers accumulated.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Mutable access for knobs without a dedicated flag (cost format).
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.config
    }

    /// An engine session over the accumulated configuration.
    pub fn engine(&self) -> Engine {
        self.engine_with(GreedyDiffer::sampled())
    }

    /// Like [`EngineCli::engine`], differencing with `differ`.
    pub fn engine_with<D: IndexedDiffer>(&self, differ: D) -> Engine<D> {
        Engine::with_differ(differ, self.config)
    }

    /// Reads and decodes a delta file.
    pub fn read_delta(path: &str) -> Result<DecodedDelta, Box<dyn std::error::Error>> {
        Ok(codec::decode(&std::fs::read(path)?)?)
    }
}

/// Parses a `--format` value.
pub fn parse_format(name: &str) -> Result<Format, String> {
    Ok(match name {
        "ordered" => Format::Ordered,
        "in-place" => Format::InPlace,
        "paper-ordered" => Format::PaperOrdered,
        "paper-in-place" => Format::PaperInPlace,
        "improved" => Format::Improved,
        _ => return Err(format!("unknown format `{name}`")),
    })
}

/// Parses a `--policy` value.
pub fn parse_policy(name: &str) -> Result<CyclePolicy, String> {
    match name {
        "constant" | "constant-time" => Ok(CyclePolicy::ConstantTime),
        "local-min" | "locally-minimum" => Ok(CyclePolicy::LocallyMinimum),
        _ => Err(format!("unknown policy `{name}`")),
    }
}

/// Parses a `--block` value: a byte count, `auto` (default signature
/// budget), or `auto:BYTES` (explicit budget).
pub fn parse_block(spec: &str) -> Result<Chunking, String> {
    if spec == "auto" {
        return Ok(Chunking::Auto {
            budget: DEFAULT_SIGNATURE_BUDGET,
        });
    }
    if let Some(budget) = spec.strip_prefix("auto:") {
        let budget = budget
            .parse::<usize>()
            .map_err(|_| format!("--block auto:BYTES needs a byte count, got `{budget}`"))?;
        if budget == 0 {
            return Err("--block auto budget must be positive".into());
        }
        return Ok(Chunking::Auto { budget });
    }
    spec.parse::<usize>()
        .map(Chunking::Fixed)
        .map_err(|_| format!("--block needs a byte count or auto[:BYTES], got `{spec}`"))
}

/// Parses a `--cdc MIN:AVG:MAX` value (byte counts).
pub fn parse_cdc(spec: &str) -> Result<CdcParams, String> {
    let err = || format!("--cdc needs MIN:AVG:MAX byte counts, got `{spec}`");
    let mut fields = spec.split(':');
    let mut next = || -> Result<usize, String> {
        fields
            .next()
            .ok_or_else(err)?
            .parse::<usize>()
            .map_err(|_| err())
    };
    let params = CdcParams {
        min: next()?,
        avg: next()?,
        max: next()?,
    };
    if fields.next().is_some() {
        return Err(err());
    }
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parse_splits_positional_and_options() {
        let cli = EngineCli::parse(&s(&[
            "a", "--format", "ordered", "b", "--policy", "constant",
        ]))
        .unwrap();
        assert_eq!(cli.positional::<2>("usage").unwrap(), ["a", "b"]);
        assert_eq!(cli.positional::<3>("usage").unwrap_err(), "usage");
        assert!(cli.finish_options().is_err());
    }

    #[test]
    fn parse_rejects_dangling_option() {
        assert!(EngineCli::parse(&s(&["a", "--format"])).is_err());
    }

    #[test]
    fn takers_accumulate_into_the_config() {
        let mut cli =
            EngineCli::parse(&s(&["--format", "improved", "--policy", "constant"])).unwrap();
        assert_eq!(cli.take_format().unwrap(), Some(Format::Improved));
        assert_eq!(cli.take_policy().unwrap(), Some(CyclePolicy::ConstantTime));
        cli.finish_options().unwrap();
        let config = cli.config();
        assert_eq!(config.format, Format::Improved);
        assert_eq!(config.policy, CyclePolicy::ConstantTime);
        assert_eq!(cli.engine().config(), config);
    }

    #[test]
    fn bad_option_values_are_reported() {
        let mut cli = EngineCli::parse(&s(&["--format", "lots"])).unwrap();
        assert!(cli.take_format().is_err());
    }

    #[test]
    fn parse_format_all_names() {
        for (name, f) in [
            ("ordered", Format::Ordered),
            ("in-place", Format::InPlace),
            ("paper-ordered", Format::PaperOrdered),
            ("paper-in-place", Format::PaperInPlace),
            ("improved", Format::Improved),
        ] {
            assert_eq!(parse_format(name).unwrap(), f);
        }
        assert!(parse_format("bogus").is_err());
    }

    #[test]
    fn take_chunking_parses_block_and_cdc() {
        let mut cli = EngineCli::parse(&s(&["--block", "4096"])).unwrap();
        assert_eq!(cli.take_chunking().unwrap(), Some(Chunking::Fixed(4096)));
        assert_eq!(cli.config().chunking, Chunking::Fixed(4096));

        let mut cli = EngineCli::parse(&s(&["--cdc", "64:256:1024"])).unwrap();
        let params = CdcParams {
            min: 64,
            avg: 256,
            max: 1024,
        };
        assert_eq!(cli.take_chunking().unwrap(), Some(Chunking::Cdc(params)));

        let mut cli = EngineCli::parse(&[]).unwrap();
        assert_eq!(cli.take_chunking().unwrap(), None);
        assert_eq!(cli.config().chunking, Chunking::default());
    }

    #[test]
    fn take_chunking_parses_auto_blocks() {
        let mut cli = EngineCli::parse(&s(&["--block", "auto"])).unwrap();
        cli.take_chunking().unwrap();
        assert_eq!(
            cli.config().chunking,
            Chunking::Auto {
                budget: DEFAULT_SIGNATURE_BUDGET
            }
        );

        let mut cli = EngineCli::parse(&s(&["--block", "auto:65536"])).unwrap();
        assert_eq!(
            cli.take_chunking().unwrap(),
            Some(Chunking::Auto { budget: 65536 })
        );
    }

    #[test]
    fn take_chunking_rejects_bad_block_values() {
        for bad in ["auto:", "auto:0", "auto:lots", "grande", "0"] {
            let mut cli = EngineCli::parse(&s(&["--block", bad])).unwrap();
            assert!(cli.take_chunking().is_err(), "accepted `{bad}`");
        }
        // Exclusive with content-defined chunking.
        let mut cli = EngineCli::parse(&s(&["--block", "auto", "--cdc", "64:256:1024"])).unwrap();
        assert!(cli.take_chunking().is_err());
    }

    #[test]
    fn take_chunking_rejects_bad_values() {
        // Mutually exclusive flags.
        let mut cli = EngineCli::parse(&s(&["--block", "4096", "--cdc", "64:256:1024"])).unwrap();
        assert!(cli.take_chunking().is_err());
        // Invalid bounds are caught by validation.
        let mut cli = EngineCli::parse(&s(&["--block", "0"])).unwrap();
        assert!(cli.take_chunking().is_err());
        let mut cli = EngineCli::parse(&s(&["--cdc", "64:100:1024"])).unwrap();
        assert!(cli.take_chunking().is_err());
    }

    #[test]
    fn parse_cdc_shapes() {
        assert_eq!(
            parse_cdc("2048:8192:65536").unwrap(),
            CdcParams {
                min: 2048,
                avg: 8192,
                max: 65536
            }
        );
        assert!(parse_cdc("1:2").is_err());
        assert!(parse_cdc("1:2:3:4").is_err());
        assert!(parse_cdc("a:b:c").is_err());
    }

    #[test]
    fn parse_policy_names() {
        assert_eq!(parse_policy("constant").unwrap(), CyclePolicy::ConstantTime);
        assert_eq!(
            parse_policy("local-min").unwrap(),
            CyclePolicy::LocallyMinimum
        );
        assert!(parse_policy("optimal").is_err());
    }
}
