//! Format oracle for the `/eval` and `/sweep` response bodies.
//!
//! The server writes both bodies token by token, without a `Json` tree.
//! Two properties pin that writer to the determinism contract:
//!
//! - **Layout:** each body is a fixed point of `Json::parse` followed by
//!   `emit_pretty`, so it has exactly the pretty layout, key order and
//!   number format of the workspace's one JSON emitter.
//! - **Keys:** each object's keys come in the order the service has
//!   always emitted them.
//! - **Values:** every prediction parsed back out of a body has the same
//!   `f64` bits as `engine::eval_cell` for that point.
//!
//! Coverage: the four sweeps, every point of every `engine::row_specs`
//! row (feasible and infeasible), and every canonical query of
//! `bench::loadgen::eval_queries()`.

use hec_arch::PlatformId;
use hec_core::json::Json;
use hec_serve::engine::{self, AppId, Cell, PlatformSel, PointSpec};
use hec_serve::request::Point;
use hec_serve::server::{point_response_body, sweep_response_body};

fn direct(p: &Point) -> Option<Cell> {
    engine::eval_cell(p.app, p.sel, &p.spec)
}

/// Parses `body`, checks it re-emits to itself, and returns the document.
fn parse_fixed_point(body: &str) -> Json {
    let doc = Json::parse(body).unwrap_or_else(|e| panic!("body is not JSON ({e}):\n{body}"));
    assert_eq!(doc.emit_pretty(), body, "body must be in emit_pretty's exact layout");
    doc
}

/// The object's keys in document order.
fn keys(doc: &Json) -> Vec<&str> {
    match doc {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("expected an object, got {doc:?}"),
    }
}

/// The key order the service has always emitted: coordinates, the
/// app's own extras, then the verdict.
fn want_keys<'a>(head: &[&'a str], spec: &PointSpec, tail: &[&'a str]) -> Vec<&'a str> {
    let mut k = head.to_vec();
    k.extend(spec.pz.map(|_| "pz"));
    k.extend(spec.n.map(|_| "n"));
    k.extend_from_slice(tail);
    k
}

fn verdict_keys(cell: Option<Cell>) -> &'static [&'static str] {
    match cell {
        Some(_) => &["feasible", "gflops_per_proc", "percent_of_peak", "step_secs"],
        None => &["feasible"],
    }
}

/// Asserts `doc`'s `feasible` flag and predictions carry `cell` bit for bit.
fn assert_cell_bits(doc: &Json, cell: Option<Cell>, what: &str) {
    assert_eq!(doc.bool_field("feasible").unwrap(), cell.is_some(), "{what}: feasible");
    let names = ["gflops_per_proc", "percent_of_peak", "step_secs"];
    match cell {
        Some(c) => {
            for (name, want) in names.into_iter().zip([c.gflops, c.pct_peak, c.step_secs]) {
                let got = doc.num_field(name).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: {name} {got} vs {want}");
            }
        }
        None => {
            for name in names {
                assert!(doc.get(name).is_none(), "{what}: infeasible point has {name}");
            }
        }
    }
}

fn check_point(p: &Point) -> bool {
    let cell = direct(p);
    let body = point_response_body(p, cell);
    let doc = parse_fixed_point(&body);
    let what = p.canonical_key();
    assert_eq!(keys(&doc), want_keys(&["app", "platform", "procs"], &p.spec, verdict_keys(cell)));
    assert_eq!(doc.str_field("app").unwrap(), p.app.name(), "{what}");
    assert_eq!(doc.str_field("platform").unwrap(), p.sel.label(), "{what}");
    assert_eq!(doc.num_field("procs").unwrap(), p.spec.procs as f64, "{what}");
    assert_eq!(doc.get("pz").and_then(Json::as_f64), p.spec.pz.map(|v| v as f64), "{what}");
    assert_eq!(doc.get("n").and_then(Json::as_f64), p.spec.n.map(|v| v as f64), "{what}");
    assert_cell_bits(&doc, cell, &what);
    cell.is_some()
}

#[test]
fn every_row_spec_point_body_is_canonical_and_bit_exact() {
    // Every row's coordinates on every platform selector, not only the
    // table's own columns: FVCAM has no 4-SSP mode, so its rows on that
    // selector cover the writer's infeasible branch.
    let selectors: Vec<PlatformSel> = PlatformId::ALL
        .into_iter()
        .map(PlatformSel::Direct)
        .chain([PlatformSel::Agg4Ssp])
        .collect();
    let (mut feasible, mut infeasible) = (0, 0);
    for app in AppId::ALL {
        for rs in engine::row_specs(app) {
            for &sel in &selectors {
                if check_point(&Point { app, sel, spec: rs.spec }) {
                    feasible += 1;
                } else {
                    infeasible += 1;
                }
            }
        }
    }
    assert!(feasible > 0 && infeasible > 0, "{feasible} feasible, {infeasible} infeasible");
}

#[test]
fn every_canonical_query_body_is_canonical_and_bit_exact() {
    let queries = bench::loadgen::eval_queries();
    assert!(!queries.is_empty());
    for q in queries {
        check_point(&Point::from_query(&q).unwrap_or_else(|e| panic!("{q}: {e}")));
    }
}

#[test]
fn every_sweep_body_is_canonical_and_bit_exact() {
    for app in AppId::ALL {
        let mut calls = Vec::new();
        let body = sweep_response_body(app, |p| {
            calls.push(*p);
            direct(p)
        });
        let doc = parse_fixed_point(&body);
        assert_eq!(keys(&doc), ["app", "rows"]);
        assert_eq!(doc.str_field("app").unwrap(), app.name());
        let rows = doc.get("rows").and_then(Json::as_arr).expect("rows array");
        let specs = engine::row_specs(app);
        assert_eq!(rows.len(), specs.len(), "{}: one row per row spec", app.name());
        let mut want_calls = Vec::new();
        for (row, rs) in rows.iter().zip(&specs) {
            assert_eq!(keys(row), want_keys(&["procs", "label"], &rs.spec, &["cells"]));
            assert_eq!(row.num_field("procs").unwrap(), rs.procs as f64);
            assert_eq!(row.str_field("label").unwrap(), rs.label);
            assert_eq!(row.get("pz").and_then(Json::as_f64), rs.spec.pz.map(|v| v as f64));
            assert_eq!(row.get("n").and_then(Json::as_f64), rs.spec.n.map(|v| v as f64));
            let cells = row.get("cells").and_then(Json::as_arr).expect("cells array");
            assert_eq!(cells.len(), rs.columns.len());
            for (cell, col) in cells.iter().zip(&rs.columns) {
                match col {
                    None => assert_eq!(cell, &Json::Null, "empty column must be null"),
                    Some(sel) => {
                        let p = Point { app, sel: *sel, spec: rs.spec };
                        let verdict = direct(&p);
                        let mut want = vec!["platform"];
                        want.extend_from_slice(verdict_keys(verdict));
                        assert_eq!(keys(cell), want);
                        assert_eq!(cell.str_field("platform").unwrap(), sel.label());
                        assert_cell_bits(cell, verdict, &p.canonical_key());
                        want_calls.push(p);
                    }
                }
            }
        }
        assert_eq!(calls, want_calls, "{}: eval runs once per cell, in table order", app.name());
    }
}
