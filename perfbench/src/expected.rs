//! Expected response bytes, computed in the benchmark process from the
//! engine and the server's own body builders — the determinism contract
//! says the wire bytes equal these exactly.

use hec_serve::engine::{self, AppId};
use hec_serve::request::Point;
use hec_serve::server::{point_response_body, sweep_response_body};

use crate::gen::{self, Class};

/// The `/eval` body of one point.
pub fn point_body(p: &Point) -> Vec<u8> {
    point_response_body(p, engine::eval_cell(p.app, p.sel, &p.spec)).into_bytes()
}

/// The `/sweep` body of one app.
pub fn sweep_body(app: AppId) -> Vec<u8> {
    sweep_response_body(app, |p| engine::eval_cell(p.app, p.sel, &p.spec)).into_bytes()
}

/// Bodies for the universe entries named in `needed` (others stay
/// empty), computed on `threads` threads.
pub fn cold_expected(universe: &[Point], needed: &[usize], threads: usize) -> Vec<Vec<u8>> {
    let mut want = vec![false; universe.len()];
    for &i in needed {
        want[i] = true;
    }
    let idx: Vec<usize> = (0..universe.len()).filter(|&i| want[i]).collect();
    let chunk = idx.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Vec<(usize, Vec<u8>)>> = std::thread::scope(|s| {
        let hs: Vec<_> = idx
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || part.iter().map(|&i| (i, point_body(&universe[i]))).collect())
            })
            .collect();
        hs.into_iter().map(|h| h.join().expect("expected-body thread panicked")).collect()
    });
    let mut out = vec![Vec::new(); universe.len()];
    for (i, body) in parts.into_iter().flatten() {
        out[i] = body;
    }
    out
}

/// Bodies of the warm mix, entry by entry.
pub fn warm_expected() -> Vec<Vec<u8>> {
    gen::warm_mix()
        .iter()
        .map(|r| match r.class {
            Class::Eval => {
                let p = Point::from_query(r.target.trim_start_matches("/eval?"))
                    .expect("canonical mix query parses");
                point_body(&p)
            }
            Class::Sweep => {
                let app = AppId::parse(r.target.trim_start_matches("/sweep?app="))
                    .expect("canonical mix sweep names an app");
                sweep_body(app)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cold_point_has_an_expected_body() {
        // A point whose evaluation panicked would abort a run on any seed
        // that draws it; the whole universe must evaluate.
        let universe = gen::cold_universe();
        let all: Vec<usize> = (0..universe.len()).collect();
        let bodies = cold_expected(&universe, &all, 2);
        assert!(bodies.iter().all(|b| b.starts_with(b"{")));
    }
}
