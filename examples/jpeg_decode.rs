//! A JPEG/MPEG-decoder-shaped workload: dequantized DCT coefficient
//! blocks of a synthetic 64×64 image stream through a hardware IDCT
//! back-to-back, the way a video decoder would feed it.
//!
//! The hardware (the optimized 1-row+1-column Verilog design) must
//! produce the same pixels as the software reference, at one block per 8
//! cycles despite its 24-cycle latency.
//!
//! Run with: `cargo run --release --example jpeg_decode`

use hls_vs_hc::axi::StreamHarness;
use hls_vs_hc::idct::{fixed, reference, Block};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = hls_vs_hc::obs::trace::flush_on_exit();
    // Synthesize a 64x64 "photograph": smooth gradients plus texture.
    let image: Vec<Vec<i32>> = (0..64)
        .map(|y| {
            (0..64)
                .map(|x| {
                    let fx = x as f64 / 64.0;
                    let fy = y as f64 / 64.0;
                    let v = 110.0 * (fx * 3.1).sin() * (fy * 2.2).cos()
                        + 80.0 * ((x / 8 + y / 8) % 2) as f64
                        - 40.0;
                    v.clamp(-256.0, 255.0) as i32
                })
                .collect()
        })
        .collect();

    // Forward-DCT each 8x8 tile (what the encoder did), giving the
    // dequantized coefficients a decoder would feed the IDCT.
    let mut coeff_blocks = Vec::new();
    for by in 0..8 {
        for bx in 0..8 {
            let tile = Block::from_fn(|r, c| image[by * 8 + r][bx * 8 + c]);
            coeff_blocks.push(reference::fdct_f64(&tile));
        }
    }
    println!("encoded {} blocks of a 64x64 image", coeff_blocks.len());

    // Decode in hardware, all 64 blocks back-to-back.
    let module = hls_vs_hc::verilog::designs::opt_rowcol()?;
    let mut harness = StreamHarness::new(module)?;
    let inputs: Vec<[[i32; 8]; 8]> = coeff_blocks.iter().map(|b| b.0).collect();
    let (outputs, timing) = harness.run(&inputs, 20_000);
    assert_eq!(outputs.len(), coeff_blocks.len(), "decoder lost blocks");
    println!(
        "decoded in hardware: latency {} cycles, steady-state one block per {} cycles",
        timing.latency, timing.periodicity
    );

    // Verify against the software decoder and measure fidelity vs the
    // original image.
    let mut worst = 0i32;
    let mut sum_sq = 0f64;
    for (i, out) in outputs.iter().enumerate() {
        let sw = fixed::idct2d(&coeff_blocks[i]);
        assert_eq!(Block(*out), sw, "block {i}: hardware != software");
        let (by, bx) = (i / 8, i % 8);
        for r in 0..8 {
            for c in 0..8 {
                let err = out[r][c] - image[by * 8 + r][bx * 8 + c];
                worst = worst.max(err.abs());
                sum_sq += f64::from(err) * f64::from(err);
            }
        }
    }
    let rmse = (sum_sq / (64.0 * 64.0)).sqrt();
    println!("hardware == software decoder on all blocks");
    println!("reconstruction vs original: worst |err| = {worst}, RMSE = {rmse:.2}");
    assert!(worst <= 2, "round-trip should be near-lossless");
    Ok(())
}
