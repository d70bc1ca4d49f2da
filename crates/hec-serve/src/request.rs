//! Request canonicalization: every spelling of an evaluation request —
//! query string or JSON body, platform label or folded alias, fields in
//! any order — collapses to one [`Point`], and the point's
//! [`Point::canonical_key`] is the cache key. Canonicalizing *before*
//! the cache is what lets overlapping sweeps and differently-spelled
//! single-point requests share work (DESIGN §8).

use crate::engine::{self, AppId, Cell, PlatformSel, PointSpec};
use hec_core::json::Json;

/// Upper bound on `procs` a request may ask for. The models are closed
/// form, but pathological concurrencies would still spend unbounded time
/// in per-rank loops; the paper's largest configuration is 32 768-way.
pub const MAX_PROCS: usize = 1 << 20;
/// Upper bound on LBMHD's grid edge (the paper tops out at 1024³).
pub const MAX_GRID_N: usize = 1 << 14;
/// Upper bound on FVCAM's vertical decomposition (26 levels exist).
pub const MAX_PZ: usize = 64;

/// One canonical evaluation point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Point {
    /// The application.
    pub app: AppId,
    /// The platform (or 4-SSP aggregate) selector.
    pub sel: PlatformSel,
    /// Concurrency / problem-size coordinates.
    pub spec: PointSpec,
}

/// A malformed or out-of-range request (HTTP 400).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BadRequest {}

fn bad(msg: impl Into<String>) -> BadRequest {
    BadRequest(msg.into())
}

/// Percent-decodes one URL component (`%41` → `A`, `+` → space).
/// Malformed escapes are passed through literally rather than rejected —
/// the field parser downstream gives the better error.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    let h = std::str::from_utf8(h).ok()?;
                    u8::from_str_radix(h, 16).ok()
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a query string into decoded `(key, value)` pairs.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| {
            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect()
}

/// Raw request fields before canonicalization, source-agnostic: filled
/// from a query string or from a JSON body.
#[derive(Clone, Debug, Default)]
pub struct RawFields {
    /// `app` field.
    pub app: Option<String>,
    /// `platform` field.
    pub platform: Option<String>,
    /// `procs` field.
    pub procs: Option<f64>,
    /// `pz` field (FVCAM).
    pub pz: Option<f64>,
    /// `n` field (LBMHD).
    pub n: Option<f64>,
}

impl RawFields {
    /// Extracts the known fields from decoded query pairs. Unknown keys
    /// are rejected so typos fail loudly instead of evaluating defaults.
    pub fn from_query(query: &str) -> Result<RawFields, BadRequest> {
        let mut raw = RawFields::default();
        for (k, v) in parse_query(query) {
            let num = || {
                v.trim()
                    .parse::<f64>()
                    .map_err(|_| bad(format!("field '{k}' must be a number, got '{v}'")))
            };
            match k.as_str() {
                "app" => raw.app = Some(v),
                "platform" => raw.platform = Some(v),
                "procs" => raw.procs = Some(num()?),
                "pz" => raw.pz = Some(num()?),
                "n" => raw.n = Some(num()?),
                other => return Err(bad(format!("unknown field '{other}'"))),
            }
        }
        Ok(raw)
    }

    /// Extracts the known fields from a parsed JSON object body.
    pub fn from_json(v: &Json) -> Result<RawFields, BadRequest> {
        let Json::Obj(fields) = v else {
            return Err(bad("request body must be a JSON object"));
        };
        let mut raw = RawFields::default();
        for (k, v) in fields {
            let num = || v.as_f64().ok_or_else(|| bad(format!("field '{k}' must be a number")));
            let text = || {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad(format!("field '{k}' must be a string")))
            };
            match k.as_str() {
                "app" => raw.app = Some(text()?),
                "platform" => raw.platform = Some(text()?),
                "procs" => raw.procs = Some(num()?),
                "pz" => raw.pz = Some(num()?),
                "n" => raw.n = Some(num()?),
                other => return Err(bad(format!("unknown field '{other}'"))),
            }
        }
        Ok(raw)
    }
}

fn int_field(name: &str, v: f64, max: usize) -> Result<usize, BadRequest> {
    if !v.is_finite() || v.fract() != 0.0 || v < 1.0 {
        return Err(bad(format!("field '{name}' must be a positive integer, got {v}")));
    }
    if v > max as f64 {
        return Err(bad(format!("field '{name}' must be at most {max}, got {v}")));
    }
    Ok(v as usize)
}

impl Point {
    /// Canonicalizes raw fields into a point: parses app/platform names
    /// (aliases fold to one spelling), checks integer ranges, rejects
    /// extras that don't belong to the app, and fills LBMHD's paper grid
    /// size when `n` is omitted at a Table 5 concurrency.
    pub fn canonicalize(raw: &RawFields) -> Result<Point, BadRequest> {
        let app_name = raw.app.as_deref().ok_or_else(|| bad("missing field 'app'"))?;
        let app = AppId::parse(app_name)
            .ok_or_else(|| bad(format!("unknown app '{app_name}' (fvcam|gtc|lbmhd|paratec)")))?;
        let plat_name = raw.platform.as_deref().ok_or_else(|| bad("missing field 'platform'"))?;
        let sel = PlatformSel::parse(plat_name)
            .ok_or_else(|| bad(format!("unknown platform '{plat_name}'")))?;
        let procs =
            int_field("procs", raw.procs.ok_or_else(|| bad("missing field 'procs'"))?, MAX_PROCS)?;
        let mut pz = None;
        let mut n = None;
        match app {
            AppId::Fvcam => {
                pz = Some(match raw.pz {
                    Some(v) => int_field("pz", v, MAX_PZ)?,
                    None => 1,
                });
                if raw.n.is_some() {
                    return Err(bad("field 'n' does not apply to fvcam"));
                }
            }
            AppId::Lbmhd => {
                if raw.pz.is_some() {
                    return Err(bad("field 'pz' does not apply to lbmhd"));
                }
                n = Some(match raw.n {
                    Some(v) => int_field("n", v, MAX_GRID_N)?,
                    None => lbmhd::model::TABLE5_CONFIGS
                        .iter()
                        .find(|(p, _)| *p == procs)
                        .map(|&(_, n)| n)
                        .ok_or_else(|| {
                            bad(format!("field 'n' is required for lbmhd at procs={procs}"))
                        })?,
                });
            }
            AppId::Gtc | AppId::Paratec => {
                if raw.pz.is_some() {
                    return Err(bad(format!("field 'pz' does not apply to {}", app.name())));
                }
                if raw.n.is_some() {
                    return Err(bad(format!("field 'n' does not apply to {}", app.name())));
                }
            }
        }
        Ok(Point { app, sel, spec: PointSpec { procs, pz, n } })
    }

    /// Parses a point from an `/eval` query string.
    pub fn from_query(query: &str) -> Result<Point, BadRequest> {
        Point::canonicalize(&RawFields::from_query(query)?)
    }

    /// Parses a point from an `/eval` JSON body.
    pub fn from_json_text(body: &str) -> Result<Point, BadRequest> {
        let v = Json::parse(body).map_err(|e| bad(format!("bad JSON body: {e}")))?;
        Point::canonicalize(&RawFields::from_json(&v)?)
    }

    /// The canonical cache key: fixed field order, canonical tokens,
    /// optional fields present exactly when the app defines them.
    pub fn canonical_key(&self) -> String {
        use std::fmt::Write as _;
        let mut key = String::with_capacity(40);
        let _ = write!(key, "{}|{}|procs={}", self.app.name(), self.sel.token(), self.spec.procs);
        if let Some(pz) = self.spec.pz {
            let _ = write!(key, "|pz={pz}");
        }
        if let Some(n) = self.spec.n {
            let _ = write!(key, "|n={n}");
        }
        key
    }

    /// Evaluates the point, containing model panics (a concurrency the
    /// app's decomposition arithmetic rejects) as infeasibility rather
    /// than a worker crash.
    pub fn eval(&self) -> Option<Cell> {
        let p = *self;
        std::panic::catch_unwind(|| engine::eval_cell(p.app, p.sel, &p.spec)).unwrap_or(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hec_arch::PlatformId;

    #[test]
    fn spellings_collapse_to_one_canonical_key() {
        let a = Point::from_query("app=gtc&platform=x1msp&procs=256").unwrap();
        let b = Point::from_query("procs=256&platform=X1%20%28MSP%29&app=GTC").unwrap();
        let c =
            Point::from_json_text(r#"{"app":"gtc","platform":"X1 (MSP)","procs":256}"#).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.canonical_key(), "gtc|x1msp|procs=256");
    }

    #[test]
    fn per_app_extras_are_enforced() {
        // fvcam defaults pz to 1; lbmhd fills the paper grid size.
        let f = Point::from_query("app=fvcam&platform=es&procs=64").unwrap();
        assert_eq!(f.spec.pz, Some(1));
        let l = Point::from_query("app=lbmhd&platform=es&procs=64").unwrap();
        assert_eq!(l.spec.n, Some(256));
        assert!(Point::from_query("app=lbmhd&platform=es&procs=96").is_err());
        assert!(Point::from_query("app=gtc&platform=es&procs=64&n=256").is_err());
        assert!(Point::from_query("app=paratec&platform=es&procs=64&pz=4").is_err());
        assert!(Point::from_query("app=fvcam&platform=es&procs=64&n=9").is_err());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for q in [
            "",
            "app=gtc",
            "app=gtc&platform=es",
            "app=gtc&platform=es&procs=0",
            "app=gtc&platform=es&procs=-4",
            "app=gtc&platform=es&procs=2.5",
            "app=gtc&platform=es&procs=1e30",
            "app=gtc&platform=es&procs=abc",
            "app=gtc&platform=t3e&procs=64",
            "app=qcd&platform=es&procs=64",
            "app=gtc&platform=es&procs=64&bogus=1",
        ] {
            assert!(Point::from_query(q).is_err(), "accepted: {q}");
        }
        assert!(Point::from_json_text("[1,2]").is_err());
        assert!(Point::from_json_text("{\"app\":3}").is_err());
        assert!(Point::from_json_text("not json").is_err());
    }

    #[test]
    fn eval_contains_model_panics() {
        // A degenerate concurrency must come back as infeasible, not
        // unwind the worker.
        let p = Point {
            app: AppId::Gtc,
            sel: PlatformSel::Direct(PlatformId::Es),
            spec: crate::engine::PointSpec::procs(7),
        };
        let _ = p.eval(); // Some or None both fine — just must not panic.
    }

    /// Every point of every paper-table row.
    fn table_points() -> Vec<Point> {
        let mut pts = Vec::new();
        for app in AppId::ALL {
            for rs in engine::row_specs(app) {
                pts.extend(rs.columns.iter().flatten().map(|&sel| Point {
                    app,
                    sel,
                    spec: rs.spec,
                }));
            }
        }
        pts
    }

    /// `s` with random case flips.
    fn recase(rng: &mut hec_core::rng::Rng, s: &str) -> String {
        s.chars()
            .map(
                |c| if rng.below(2) == 0 { c.to_ascii_uppercase() } else { c.to_ascii_lowercase() },
            )
            .collect()
    }

    /// A random accepted spelling of `p`'s fields as `(key, value, is_number)`,
    /// in random order: case-folded names, aliases, punctuation the
    /// platform parser folds away, numbers in other notations, and
    /// extras left to their defaults where the app has one.
    fn spelled_fields(
        rng: &mut hec_core::rng::Rng,
        p: &Point,
    ) -> Vec<(&'static str, String, bool)> {
        let app = match (p.app, rng.below(3)) {
            (AppId::Lbmhd, 0) => "lbmhd3d".to_string(),
            (app, _) => app.name().to_string(),
        };
        let platform = match rng.below(3) {
            0 => p.sel.token().to_string(),
            1 => p.sel.label().to_string(),
            _ => p.sel.label().replace(' ', "-").replace(['(', ')'], "_"),
        };
        let number = |rng: &mut hec_core::rng::Rng, v: usize| match rng.below(3) {
            0 => v.to_string(),
            1 => format!("{v}.0"),
            _ => format!("{}e1", v as f64 / 10.0),
        };
        let mut fields = vec![
            ("app", recase(rng, &app), false),
            ("platform", recase(rng, &platform), false),
            ("procs", number(rng, p.spec.procs), true),
        ];
        let lbmhd_default = lbmhd::model::TABLE5_CONFIGS.iter().any(|&(procs, n)| {
            p.app == AppId::Lbmhd && procs == p.spec.procs && Some(n) == p.spec.n
        });
        if let Some(pz) = p.spec.pz.filter(|&pz| pz != 1 || rng.below(2) == 0) {
            fields.push(("pz", number(rng, pz), true));
        }
        if let Some(n) = p.spec.n.filter(|_| !lbmhd_default || rng.below(2) == 0) {
            fields.push(("n", number(rng, n), true));
        }
        for i in (1..fields.len()).rev() {
            fields.swap(i, rng.below(i + 1));
        }
        fields
    }

    /// Percent-encodes every byte that is not alphanumeric, or encodes a
    /// space as `+`, at random.
    fn encode(rng: &mut hec_core::rng::Rng, s: &str) -> String {
        s.bytes()
            .map(|b| match b {
                b if b.is_ascii_alphanumeric() && rng.below(4) != 0 => (b as char).to_string(),
                b' ' if rng.below(2) == 0 => "+".to_string(),
                b => format!("%{b:02X}"),
            })
            .collect()
    }

    fn as_query(rng: &mut hec_core::rng::Rng, fields: &[(&str, String, bool)]) -> String {
        let pairs: Vec<String> = fields
            .iter()
            .map(|(k, v, _)| format!("{}={}", encode(rng, k), encode(rng, v)))
            .collect();
        pairs.join("&")
    }

    fn as_json(fields: &[(&str, String, bool)]) -> String {
        let pairs: Vec<String> = fields
            .iter()
            .map(
                |(k, v, num)| {
                    if *num {
                        format!("\"{k}\": {v}")
                    } else {
                        format!("\"{k}\": {v:?}")
                    }
                },
            )
            .collect();
        format!("{{{}}}", pairs.join(", "))
    }

    #[test]
    fn every_spelling_of_a_point_gives_one_canonical_key() {
        let mut rng = hec_core::rng::Rng::new(0x5eed);
        for p in table_points() {
            let key = p.canonical_key();
            for _ in 0..8 {
                let fields = spelled_fields(&mut rng, &p);
                let q = as_query(&mut rng, &fields);
                let got = Point::from_query(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
                assert_eq!(got.canonical_key(), key, "{q}");
                let body = as_json(&fields);
                let got = Point::from_json_text(&body).unwrap_or_else(|e| panic!("{body}: {e}"));
                assert_eq!(got.canonical_key(), key, "{body}");
            }
        }
    }

    #[test]
    fn garbage_requests_are_bad_requests_never_panics() {
        let mut rng = hec_core::rng::Rng::new(0xbad);
        let points = table_points();
        // One corruption of a valid spelling: each must be rejected.
        for _ in 0..2_000 {
            let p = points[rng.below(points.len())];
            let mut fields = spelled_fields(&mut rng, &p);
            let at = rng.below(fields.len());
            match rng.below(5) {
                0 => {
                    fields.remove(fields.iter().position(|f| f.0 == "procs").unwrap());
                }
                1 => fields.push((["bogus", "procz", "x"][rng.below(3)], "1".into(), true)),
                2 => fields[at].1 = ["", "-1", "0", "2.5", "1e400", "nan"][rng.below(6)].into(),
                3 => {
                    let i = fields.iter().position(|f| f.0 == "platform").unwrap();
                    fields[i].1 = ["t3e", "x2", "", "4-ssp-x"][rng.below(4)].into();
                }
                _ => {
                    let wrong = if p.app == AppId::Fvcam { "n" } else { "pz" };
                    if !fields.iter().any(|f| f.0 == wrong) {
                        fields.push((wrong, "4".into(), true));
                    } else {
                        fields.push(("app2", "gtc".into(), false));
                    }
                }
            }
            let q = as_query(&mut rng, &fields);
            assert!(Point::from_query(&q).is_err(), "accepted corrupted query {q}");
            let body = as_json(&fields);
            assert!(Point::from_json_text(&body).is_err(), "accepted corrupted body {body}");
        }
        // Random text: any verdict, but never a panic.
        let pieces = [
            "app=",
            "platform=",
            "procs=",
            "&",
            "=",
            "%",
            "%4",
            "%zz",
            "+",
            "gtc",
            "es",
            "64",
            "1e308",
            "-",
            "{",
            "}",
            "\"",
            ":",
            ",",
            "[",
            "é",
            "\u{0}",
        ];
        for _ in 0..20_000 {
            let text: String =
                (0..rng.below(16)).map(|_| pieces[rng.below(pieces.len())]).collect();
            let _ = Point::from_query(&text);
            let _ = Point::from_json_text(&text);
        }
    }

    #[test]
    fn percent_decoding_handles_escapes() {
        assert_eq!(percent_decode("X1%20%28MSP%29"), "X1 (MSP)");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }
}
