//! Regenerates Table I.
fn main() {
    let _trace = hc_obs::trace::flush_on_exit();
    println!("TABLE I: LANGUAGES AND TOOLS UNDER EVALUATION\n");
    print!("{}", hc_core::report::table1());
}
