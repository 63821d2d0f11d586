//! Correctness checks on the program's outputs. Each returns `Err`
//! with a one-line reason; the self-tests below feed each one a
//! deliberately wrong input and require it to fail.

use cntfet_numerics::stats::relative_rms_percent;
use cntfet_server::json::Json;

/// The paper's accuracy band for Model 2 (mean relative RMS error, %).
pub const MODEL2_MEAN_LIMIT_PERCENT: f64 = 3.0;

/// Compact vs reference I–V accuracy. `m1`, `m2` and `reference` hold
/// one curve per (temperature, gate voltage), all at the same drain
/// biases. Passes when Model 2's mean relative RMS error is below the
/// paper's band and below Model 1's; returns both means (percent).
pub fn iv_accuracy(
    m1: &[Vec<f64>],
    m2: &[Vec<f64>],
    reference: &[Vec<f64>],
) -> Result<(f64, f64), String> {
    if m1.len() != reference.len() || m2.len() != reference.len() || reference.is_empty() {
        return Err("accuracy check needs one compact curve per reference curve".into());
    }
    let mean = |curves: &[Vec<f64>]| {
        curves
            .iter()
            .zip(reference)
            .map(|(c, r)| relative_rms_percent(c, r))
            .sum::<f64>()
            / reference.len() as f64
    };
    let (e1, e2) = (mean(m1), mean(m2));
    if e2.is_nan() || e2 >= MODEL2_MEAN_LIMIT_PERCENT {
        return Err(format!(
            "Model 2 mean RMS error {e2:.3}% is outside the paper's band (< {MODEL2_MEAN_LIMIT_PERCENT}%)"
        ));
    }
    if e2.is_nan() || e2 >= e1 {
        return Err(format!(
            "Model 2 mean RMS error {e2:.3}% is not below Model 1's {e1:.3}%"
        ));
    }
    Ok((e1, e2))
}

/// `Ids(Vg, 0) = 0` exactly, for every curve sampled on `vds`.
pub fn iv_zero_at_zero_bias(curves: &[Vec<f64>], vds: &[f64]) -> Result<(), String> {
    let Some(k) = vds.iter().position(|&v| v == 0.0) else {
        return Err("the drain grid has no Vds = 0 point".into());
    };
    match curves.iter().position(|c| c[k] != 0.0) {
        Some(i) => Err(format!(
            "curve {i} has Ids = {:e} A at Vds = 0",
            curves[i][k]
        )),
        None => Ok(()),
    }
}

/// `Ids` non-decreasing in `Vds` along each curve and in `Vg` across
/// curves (rows ordered by increasing gate voltage).
pub fn iv_monotone(family: &[Vec<f64>]) -> Result<(), String> {
    for (i, row) in family.iter().enumerate() {
        if let Some(j) = (1..row.len()).find(|&j| row[j] < row[j - 1]) {
            return Err(format!("Ids decreases in Vds on curve {i} at point {j}"));
        }
    }
    for i in 1..family.len() {
        if let Some(j) = (0..family[i].len()).find(|&j| family[i][j] < family[i - 1][j]) {
            return Err(format!(
                "Ids decreases in Vg between curves {} and {i} at point {j}",
                i - 1
            ));
        }
    }
    Ok(())
}

/// A logic level read from a node voltage, when it sits within
/// `0.1·vdd` of a rail.
fn logic_level(v: f64, vdd: f64) -> Option<bool> {
    if (v - vdd).abs() <= 0.1 * vdd {
        Some(true)
    } else if v.abs() <= 0.1 * vdd {
        Some(false)
    } else {
        None
    }
}

/// Inverter-array outputs: at `t = 0` every probed row output (columns
/// after `time`) sits at the level `stages` inversions of a low input
/// imply, and all rows agree at every time point to within `1e-9·vdd`
/// (identical rows assembled in a different order may differ in the
/// last bits, never more).
pub fn ring_rows(rows: &[Vec<f64>], stages: usize, vdd: f64) -> Result<(), String> {
    let first = rows.first().ok_or("the transient produced no rows")?;
    let high = stages % 2 == 1;
    for (c, &v) in first.iter().enumerate().skip(1) {
        if logic_level(v, vdd) != Some(high) {
            return Err(format!(
                "row output {c} reads {v:e} V at t = 0; {stages} stages imply a {} output",
                if high { "high" } else { "low" }
            ));
        }
    }
    if let Some((t, row)) = rows
        .iter()
        .enumerate()
        .find(|(_, r)| r[1..].iter().any(|v| (v - r[1]).abs() > 1e-9 * vdd))
    {
        return Err(format!(
            "array rows disagree at sample {t}: {:?}",
            &row[1..]
        ));
    }
    Ok(())
}

/// The row whose time (column 0) is closest to `t`.
fn row_at(rows: &[Vec<f64>], t: f64) -> &[f64] {
    rows.iter()
        .min_by(|a, b| (a[0] - t).abs().total_cmp(&(b[0] - t).abs()))
        .map(Vec::as_slice)
        .unwrap_or(&[])
}

/// The 2-bit adder's `sum0, sum1, c2` columns against `a + b` with
/// `b = 3` and `a = a0` (a1 tied low): the DC point at `t = 0`
/// (`a0` low) must read the full sum 3, and at the end of the run
/// (`a0` high) every output that has settled at a rail must read its
/// bit of 4.
pub fn adder2_sums(rows: &[Vec<f64>], vdd: f64) -> Result<(), String> {
    let decode = |row: &[f64], need_all: bool, want: u32| -> Result<(), String> {
        for (bit, &v) in row.iter().skip(1).take(3).enumerate() {
            let expected = want >> bit & 1 == 1;
            match logic_level(v, vdd) {
                Some(level) if level != expected => {
                    return Err(format!(
                        "adder output bit {bit} reads {v:e} V at t = {:e} s; a + b = {want}",
                        row[0]
                    ))
                }
                None if need_all => {
                    return Err(format!(
                        "adder output bit {bit} is not at a rail at t = {:e} s",
                        row[0]
                    ))
                }
                _ => {}
            }
        }
        Ok(())
    };
    let first = rows.first().ok_or("the transient produced no rows")?;
    if first.len() != 4 {
        return Err(format!(
            "expected time + 3 adder outputs, got {} columns",
            first.len()
        ));
    }
    decode(first, true, 3)?;
    decode(rows.last().unwrap(), false, 4)
}

/// A NAND3/NOR3 with all inputs tied to one pulse (low until 0, high
/// from 10 ps to 210 ps, low again from 220 ps) inverts it once
/// settled: high at 0 ps, low at 200 ps, high at 400 ps, each within
/// `0.2·vdd` of its rail.
pub fn tied_gate_truth(rows: &[Vec<f64>], vdd: f64) -> Result<(), String> {
    for (t, high) in [(0.0, true), (200e-12, false), (400e-12, true)] {
        let row = row_at(rows, t);
        let v = *row.get(1).ok_or("the transient produced no rows")?;
        let target = if high { vdd } else { 0.0 };
        if (v - target).abs() > 0.2 * vdd {
            return Err(format!(
                "gate output reads {v:e} V at t = {:e} s; the truth table gives {}",
                row[0],
                u8::from(high)
            ));
        }
    }
    Ok(())
}

/// Divider outputs against `V·R2/(R1+R2)`: `op` holds the `.op` row
/// (`v(out)` at the source's DC value `v_dc`), `dc` the `.dc` sweep
/// rows (`V1`, `v(out)`).
pub fn divider_outputs(
    op: &[Vec<f64>],
    dc: &[Vec<f64>],
    v_dc: f64,
    r1: f64,
    r2: f64,
) -> Result<(), String> {
    let expect = |v: f64| v * r2 / (r1 + r2);
    let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs().max(1e-3);
    let out = op
        .first()
        .and_then(|r| r.first())
        .ok_or("divider .op report is empty")?;
    if !close(*out, expect(v_dc)) {
        return Err(format!(
            "divider .op reads {out:e} V, V·R2/(R1+R2) = {:e} V",
            expect(v_dc)
        ));
    }
    if dc.is_empty() {
        return Err("divider .dc report is empty".into());
    }
    for row in dc {
        if !close(row[1], expect(row[0])) {
            return Err(format!(
                "divider .dc at V1 = {:e} reads {:e} V, expected {:e} V",
                row[0],
                row[1],
                expect(row[0])
            ));
        }
    }
    Ok(())
}

/// A server result against the rendering of a cold run of the same
/// deck: every report's label, columns and CSV must be equal text.
/// (Solver counters and cache traffic legitimately differ warm vs
/// cold, so they are not compared.)
pub fn same_reports(warm: &Json, cold: &Json) -> Result<(), String> {
    fn reports(j: &Json) -> Option<&[Json]> {
        j.get("reports").and_then(Json::as_arr)
    }
    let (Some(w), Some(c)) = (reports(warm), reports(cold)) else {
        return Err("a result lacks its reports".into());
    };
    if w.len() != c.len() {
        return Err(format!(
            "{} reports served, {} from the cold run",
            w.len(),
            c.len()
        ));
    }
    for (i, (w, c)) in w.iter().zip(c).enumerate() {
        for key in ["label", "columns", "csv"] {
            let (a, b) = (w.get(key), c.get(key));
            if a.is_none() || a != b {
                return Err(format!("report {i}: served {key} differs from a cold run"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntfet_circuit::deck::Deck;
    use cntfet_core::CompactCntFet;
    use cntfet_physics::units::{ElectronVolts, Kelvin};
    use cntfet_reference::{BallisticModel, DeviceParams};
    use cntfet_server::hub::{render_result, spawn_workers, Hub};

    const ADDER2: &str = include_str!("../../examples/decks/adder2.cir");
    const DIVIDER: &str = include_str!("../../examples/decks/divider.cir");

    fn curves(f: impl Fn(f64) -> Vec<f64>) -> Vec<Vec<f64>> {
        [0.2, 0.4, 0.6].into_iter().map(f).collect()
    }

    #[test]
    fn iv_checks_reject_a_family_scaled_by_five_percent() {
        let params = DeviceParams::paper_default()
            .with_temperature(Kelvin(300.0))
            .with_fermi_level(ElectronVolts(-0.32));
        let m1 = CompactCntFet::model1(params.clone()).unwrap();
        let m2 = CompactCntFet::model2(params.clone()).unwrap();
        let reference = BallisticModel::new(params);
        let vds: Vec<f64> = (0..13).map(|k| k as f64 * 0.05).collect();
        let r = curves(|vg| {
            reference
                .output_characteristic(vg, &vds)
                .unwrap()
                .currents()
        });
        let c1 = curves(|vg| m1.output_characteristic(vg, &vds).unwrap().currents());
        let c2 = curves(|vg| m2.output_characteristic(vg, &vds).unwrap().currents());
        iv_accuracy(&c1, &c2, &r).unwrap();
        iv_zero_at_zero_bias(&c2, &vds).unwrap();
        iv_monotone(&c2).unwrap();

        let scaled: Vec<Vec<f64>> = c2
            .iter()
            .map(|c| c.iter().map(|i| i * 1.05).collect())
            .collect();
        assert!(iv_accuracy(&c1, &scaled, &r).is_err());
        let mut shifted = c2.clone();
        shifted[1][0] = 1e-12;
        assert!(iv_zero_at_zero_bias(&shifted, &vds).is_err());
        let mut swapped = c2.clone();
        swapped.swap(0, 2);
        assert!(iv_monotone(&swapped).is_err());
    }

    #[test]
    fn adder_check_rejects_one_flipped_bit() {
        let deck = Deck::parse(ADDER2).unwrap();
        // The DC operating point settles the t = 0 row; a short .tran
        // keeps the self-test fast.
        let text = deck
            .to_text()
            .replace(".tran 1e-11 4e-10", ".tran 1e-11 2e-11");
        let run = Deck::parse(&text).unwrap().run().unwrap();
        let rows = &run.reports[0].rows;
        // The DC point as simulated, then an end of run with a0 high
        // where the carry has settled and the sums are still moving.
        let good = vec![rows[0].clone(), vec![4e-10, 0.45, 0.45, 0.9]];
        adder2_sums(&good, 0.9).unwrap();
        let mut flipped = good.clone();
        flipped[0][1] = 0.9 - flipped[0][1];
        assert!(adder2_sums(&flipped, 0.9).is_err());
        let mut carry_low = good.clone();
        carry_low[1][3] = 0.0;
        assert!(adder2_sums(&carry_low, 0.9).is_err());
    }

    #[test]
    fn gate_and_ring_checks_reject_wrong_levels() {
        let good = vec![vec![0.0, 0.8], vec![2e-10, 0.01], vec![4e-10, 0.79]];
        tied_gate_truth(&good, 0.8).unwrap();
        let mut stuck = good.clone();
        stuck[1][1] = 0.8;
        assert!(tied_gate_truth(&stuck, 0.8).is_err());

        let rows = vec![vec![0.0, 0.9, 0.9], vec![1e-11, 0.5, 0.5]];
        ring_rows(&rows, 3, 0.9).unwrap();
        assert!(ring_rows(&rows, 4, 0.9).is_err());
        let mut split = rows.clone();
        split[1][2] = 0.5000001;
        assert!(ring_rows(&split, 3, 0.9).is_err());
    }

    #[test]
    fn divider_check_rejects_a_wrong_ratio() {
        let run = Deck::parse(DIVIDER).unwrap().run().unwrap();
        let (op, dc) = (&run.reports[0].rows, &run.reports[1].rows);
        divider_outputs(op, dc, 2.0, 1e3, 1e3).unwrap();
        assert!(divider_outputs(op, dc, 2.0, 1e3, 1.01e3).is_err());
    }

    #[test]
    fn serve_check_rejects_a_warm_result_with_one_changed_digit() {
        let hub = Hub::new(1);
        let workers = spawn_workers(&hub, 1);
        let mut warm = None;
        for _ in 0..2 {
            let id = hub.submit(DIVIDER.to_string()).unwrap();
            warm = Some(hub.result(id, true, false).unwrap());
        }
        hub.shutdown(false);
        for w in workers {
            w.join().unwrap();
        }
        let warm = warm.unwrap();
        let cold = render_result(&Deck::parse(DIVIDER).unwrap().run().unwrap());
        same_reports(&warm, &cold).unwrap();

        let text = warm.render();
        let at = text
            .find("5e-1")
            .expect("the divider's .dc sweep prints 5e-1");
        let changed = format!("{}6{}", &text[..at], &text[at + 1..]);
        let changed = Json::parse(&changed).unwrap();
        assert!(same_reports(&changed, &cold).is_err());
    }
}
