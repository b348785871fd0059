//! Buffer-capacity tiling.
//!
//! Layers whose working set exceeds the on-chip buffers are split into
//! spatial tiles (bands of output rows, with input halo) and weight chunks
//! (bands of output maps). VGG's big bottom layers are the motivating case:
//! the paper attributes VGG's modest speedup to exactly this "exchange data
//! frequently between on-chip buffer and off-chip memory" (Sec. 5.2).

use crate::error::CompileError;
use crate::geometry::ConvGeometry;
use cbrain_model::ELEM_BYTES;
use cbrain_sim::{AcceleratorConfig, MacroOp, RunProgram, Tile, TileRun};

/// A tiling decision for one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TilePlan {
    /// Number of output-row bands per group.
    pub spatial_tiles: usize,
    /// Number of weight chunks (output-map bands) per spatial tile.
    pub weight_chunks: usize,
    /// Group count (grouped convolutions run group by group).
    pub groups: usize,
    /// Input bytes DMA-ed per (group, spatial tile), halo and unrolling
    /// inflation included.
    pub input_tile_bytes: u64,
    /// Output bytes DMA-ed back per (group, spatial tile).
    pub output_tile_bytes: u64,
    /// Weight bytes DMA-ed per weight chunk.
    pub weight_chunk_bytes: u64,
    /// Whether the full weight set fits on chip and is fetched only once
    /// for the whole layer (instead of once per spatial tile).
    pub weights_resident: bool,
    /// Exact output bytes of one group (distributed across spatial tiles
    /// without the ceil-rounding of `output_tile_bytes`).
    pub output_group_bytes: u64,
    /// Largest batch for which the weight-chunk-outer batched ordering is
    /// possible (all images' activations resident while weight chunks
    /// stream). 1 disables it; only flat single-tile plans support it.
    pub max_weight_outer_batch: usize,
}

impl TilePlan {
    /// Plans a convolution layer.
    ///
    /// `input_inflation` scales the input footprint and traffic (1.0 for
    /// raw data; Eq. 1's `T` for unrolled intra-kernel data).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::WorkingSetTooLarge`] when even a single
    /// output row cannot fit on chip.
    pub fn conv(
        geom: &ConvGeometry,
        cfg: &AcceleratorConfig,
        input_inflation: f64,
    ) -> Result<TilePlan, CompileError> {
        let cap = cfg.inout_buf_bytes as u64;
        let eb = ELEM_BYTES as u64;
        let in_w = geom.input.width as u64;
        let out_row_bytes = (geom.out_x * geom.dout_g) as u64 * eb;

        let input_tile_bytes_for = |rows_out: u64| -> u64 {
            let rows_in = (rows_out - 1) * geom.s as u64 + geom.k as u64;
            let raw = rows_in.min(geom.input.height as u64) * in_w * geom.din_g as u64 * eb;
            (raw as f64 * input_inflation).ceil() as u64
        };

        let mut spatial_tiles = 0;
        for n in 1..=geom.out_y {
            let rows_out = (geom.out_y as u64).div_ceil(n as u64);
            let footprint = input_tile_bytes_for(rows_out) + rows_out * out_row_bytes;
            if footprint <= cap {
                spatial_tiles = n;
                break;
            }
        }
        let weight_bytes_group = geom.weight_bytes() / geom.groups as u64;
        let weight_cap = cfg.weight_buf_bytes as u64;
        let weight_chunks = weight_bytes_group.div_ceil(weight_cap).max(1) as usize;
        let weights_resident = geom.weight_bytes() <= weight_cap;

        if spatial_tiles == 0 {
            // Even a single output row overflows (heavily inflated
            // unrolled inputs): split the row into column bands. The
            // column halo is charged via a small fudge on the band size.
            let row_footprint = input_tile_bytes_for(1);
            let min_window =
                ((geom.k * geom.k * geom.din_g) as u64 * eb).max(out_row_bytes / geom.out_x as u64);
            if min_window > cap {
                return Err(CompileError::WorkingSetTooLarge {
                    layer: "<conv>".to_owned(),
                    required: min_window,
                    available: cap,
                });
            }
            let bands = (row_footprint + out_row_bytes).div_ceil(cap / 2).max(2);
            let band_input = (row_footprint as f64 / bands as f64 * 1.1).ceil() as u64;
            return Ok(TilePlan {
                spatial_tiles: geom.out_y * bands as usize,
                weight_chunks,
                groups: geom.groups,
                input_tile_bytes: band_input,
                output_tile_bytes: out_row_bytes.div_ceil(bands),
                weight_chunk_bytes: weight_bytes_group.div_ceil(weight_chunks as u64),
                weights_resident,
                output_group_bytes: geom.out_y as u64 * out_row_bytes,
                max_weight_outer_batch: 1,
            });
        }

        let rows_out = (geom.out_y as u64).div_ceil(spatial_tiles as u64);
        Ok(TilePlan {
            spatial_tiles,
            weight_chunks,
            groups: geom.groups,
            input_tile_bytes: input_tile_bytes_for(rows_out),
            output_tile_bytes: rows_out * out_row_bytes,
            weight_chunk_bytes: weight_bytes_group.div_ceil(weight_chunks as u64),
            weights_resident,
            output_group_bytes: geom.out_y as u64 * out_row_bytes,
            max_weight_outer_batch: 1,
        })
    }

    /// Plans a flat (fully-connected) layer: activations are tiny, weights
    /// stream through in chunks.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::WorkingSetTooLarge`] if the activations
    /// alone overflow the data buffer (they never do for the zoo networks).
    pub fn flat(
        input_bytes: u64,
        output_bytes: u64,
        weight_bytes: u64,
        cfg: &AcceleratorConfig,
    ) -> Result<TilePlan, CompileError> {
        let cap = cfg.inout_buf_bytes as u64;
        if input_bytes + output_bytes > cap {
            return Err(CompileError::WorkingSetTooLarge {
                layer: "<flat>".to_owned(),
                required: input_bytes + output_bytes,
                available: cap,
            });
        }
        let weight_cap = cfg.weight_buf_bytes as u64;
        let weight_chunks = weight_bytes.div_ceil(weight_cap).max(1) as usize;
        Ok(TilePlan {
            spatial_tiles: 1,
            weight_chunks,
            groups: 1,
            input_tile_bytes: input_bytes,
            output_tile_bytes: output_bytes,
            weight_chunk_bytes: weight_bytes.div_ceil(weight_chunks as u64),
            weights_resident: weight_bytes <= weight_cap,
            output_group_bytes: output_bytes,
            max_weight_outer_batch: cap
                .checked_div(input_bytes + output_bytes)
                .unwrap_or(1)
                .max(1) as usize,
        })
    }

    /// Total number of machine tiles this plan produces.
    pub const fn tile_count(&self) -> usize {
        self.spatial_tiles * self.weight_chunks * self.groups
    }

    /// Total DRAM read traffic (input fetched once per spatial tile and
    /// group; weights once if resident, else once per spatial tile).
    pub fn dram_read_bytes(&self) -> u64 {
        let inputs = self.input_tile_bytes * (self.spatial_tiles * self.groups) as u64;
        let weight_total = self.weight_chunk_bytes * (self.weight_chunks * self.groups) as u64;
        let weights = if self.weights_resident {
            weight_total
        } else {
            weight_total * self.spatial_tiles as u64
        };
        inputs + weights
    }

    /// Total DRAM write traffic (exact: every output byte leaves once).
    pub fn dram_write_bytes(&self) -> u64 {
        self.output_group_bytes * self.groups as u64
    }

    /// Builds the program of a batch of `batch` images as runs of
    /// identical tiles, without materializing the repeats.
    ///
    /// `template` holds whole-layer totals; tile `i` of `n` receives the
    /// `[i*total/n, (i+1)*total/n)` share of every count, so the sum over
    /// tiles is exact. Activations (input fetches, output drains) and
    /// compute repeat per image; **resident weights are fetched once for
    /// the whole batch**, the amortization that makes batching pay.
    ///
    /// Two repetitions of the tile order are exact. Every image after the
    /// first repeats the first image's tiles, less the once-per-batch
    /// resident-weight fetch. And when `groups` divides every template
    /// count, every group repeats the first group's tiles: a tile's share
    /// `floor(G*X*(i+1)/(G*M)) - floor(G*X*i/(G*M))` of a count `G*X`
    /// over `G*M` tiles depends only on `i mod M`. Otherwise every tile of
    /// an image is emitted, and equal neighbours still merge. `prepass`,
    /// when given, runs ahead of each image's tiles (the intra unroll
    /// pre-pass).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn build_program(
        &self,
        template: &[MacroOp],
        batch: usize,
        prepass: Option<&Tile>,
    ) -> RunProgram {
        assert!(batch > 0, "batch must be non-zero");
        let mut program = RunProgram::new();
        // Streaming-weight flat layers (FC) batch best with the weight
        // chunks in the *outer* loop: every chunk is fetched once and
        // applied to all resident images, dividing the dominant weight
        // stream by the batch size.
        if batch > 1
            && !self.weights_resident
            && self.spatial_tiles == 1
            && self.groups == 1
            && batch <= self.max_weight_outer_batch
        {
            // Every image's pre-pass runs before the chunks stream.
            if let Some(p) = prepass {
                program.push(p.clone(), batch as u64);
            }
            let n = self.weight_chunks as u64;
            let total_scale = batch as u64;
            for i in 0..n {
                let share = |total: u64| {
                    (total * total_scale * (i + 1)) / n - (total * total_scale * i) / n
                };
                let mut read = self.weight_chunk_bytes;
                if i == 0 {
                    read += self.input_tile_bytes * batch as u64;
                }
                let write = if i == n - 1 {
                    self.output_group_bytes * batch as u64
                } else {
                    0
                };
                program.push(
                    Tile {
                        dram_read_bytes: read,
                        dram_write_bytes: write,
                        ops: scale_ops(template, &share),
                    },
                    1,
                );
            }
            return program;
        }

        let n = self.tile_count() as u64;
        let per_group = (self.spatial_tiles * self.weight_chunks) as u64;
        let periodic = self.groups > 1
            && template
                .iter()
                .all(|op| volume(op).is_multiple_of(self.groups as u64));
        let (emitted, copies) = if periodic {
            (per_group, self.groups as u64)
        } else {
            (n, 1)
        };
        // The tiles of one image are `block` repeated `copies` times.
        let mut block = Vec::new();
        for i in 0..emitted {
            TileRun::push(&mut block, self.image_tile(template, i, n), 1);
        }
        for image in 0..batch {
            if let Some(p) = prepass {
                program.push(p.clone(), 1);
            }
            if image == 0 && self.weights_resident && !block.is_empty() {
                // Once per batch, on the very first tile.
                let mut first = block[0].tile.clone();
                first.dram_read_bytes +=
                    self.weight_chunk_bytes * (self.weight_chunks * self.groups) as u64;
                program.push(first, 1);
                program.push(block[0].tile.clone(), block[0].repeat - 1);
                program.push_runs(&block[1..], 1);
                program.push_runs(&block, copies - 1);
            } else {
                program.push_runs(&block, copies);
            }
        }
        program
    }

    /// Tile `i` of the `n` tiles of one image in the image-outer order,
    /// without the once-per-batch resident-weight fetch.
    fn image_tile(&self, template: &[MacroOp], i: u64, n: u64) -> Tile {
        let share = |total: u64| (total * (i + 1)) / n - (total * i) / n;
        // Tile order within an image: group-major, then spatial band,
        // then weight chunk.
        let chunk = (i % self.weight_chunks as u64) as usize;
        let spatial = ((i / self.weight_chunks as u64) % self.spatial_tiles as u64) as usize;
        let mut read = 0;
        if chunk == 0 {
            read += self.input_tile_bytes;
        }
        if !self.weights_resident {
            read += self.weight_chunk_bytes;
        }
        let write = if chunk == self.weight_chunks - 1 {
            // Fair share of the group's exact output across its
            // spatial bands (the last band may be narrower).
            let nb = self.spatial_tiles as u64;
            let sp = spatial as u64;
            (self.output_group_bytes * (sp + 1)) / nb - (self.output_group_bytes * sp) / nb
        } else {
            0
        };
        Tile {
            dram_read_bytes: read,
            dram_write_bytes: write,
            ops: scale_ops(template, &share),
        }
    }
}

/// The count of an op that tiles share out: its bursts, accumulations or
/// elements.
fn volume(op: &MacroOp) -> u64 {
    match *op {
        MacroOp::MacBurst { bursts, .. }
        | MacroOp::PoolBurst { bursts, .. }
        | MacroOp::EltwiseBurst { bursts, .. } => bursts,
        MacroOp::AddStore { count } => count,
        MacroOp::OutputWrite { elems } | MacroOp::BiasLoad { elems } => elems,
    }
}

/// `op` with its [`volume`] scaled to `share(volume)`.
pub(crate) fn scale_op(op: &MacroOp, share: impl Fn(u64) -> u64) -> MacroOp {
    let mut op = *op;
    let v = share(volume(&op));
    match &mut op {
        MacroOp::MacBurst { bursts, .. }
        | MacroOp::PoolBurst { bursts, .. }
        | MacroOp::EltwiseBurst { bursts, .. } => *bursts = v,
        MacroOp::AddStore { count } => *count = v,
        MacroOp::OutputWrite { elems } | MacroOp::BiasLoad { elems } => *elems = v,
    }
    op
}

/// Scales each template op down to a tile's share; drops empty ops.
fn scale_ops(template: &[MacroOp], share: &dyn Fn(u64) -> u64) -> Vec<MacroOp> {
    template
        .iter()
        .map(|op| scale_op(op, share))
        .filter(|op| volume(op) > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain_model::{zoo, ConvParams, TensorShape};

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper_16_16()
    }

    fn geom_of(net: &cbrain_model::Network, layer: &str) -> ConvGeometry {
        ConvGeometry::from_layer(net.layer(layer).unwrap()).unwrap()
    }

    #[test]
    fn small_layer_is_single_tile() {
        let net = zoo::alexnet();
        let g = geom_of(&net, "conv1");
        let plan = TilePlan::conv(&g, &cfg(), 1.0).unwrap();
        assert_eq!(plan.spatial_tiles, 1);
        assert_eq!(plan.weight_chunks, 1);
        assert_eq!(plan.tile_count(), 1);
        assert!(plan.weights_resident);
    }

    #[test]
    fn vgg_bottom_layer_tiles_spatially() {
        // conv1_2: 64x224x224 in + 64x224x224 out at 2 B = 12.8 MB >> 2 MB.
        let net = zoo::vgg16();
        let g = geom_of(&net, "conv1_2");
        let plan = TilePlan::conv(&g, &cfg(), 1.0).unwrap();
        assert!(plan.spatial_tiles > 4, "tiles={}", plan.spatial_tiles);
        // Per-tile working set honours the capacity.
        assert!(plan.input_tile_bytes + plan.output_tile_bytes <= cfg().inout_buf_bytes as u64);
    }

    #[test]
    fn halo_makes_input_traffic_exceed_footprint() {
        let net = zoo::vgg16();
        let g = geom_of(&net, "conv1_2");
        let plan = TilePlan::conv(&g, &cfg(), 1.0).unwrap();
        // k=3, s=1 halo: each band re-reads 2 rows of overlap.
        assert!(plan.dram_read_bytes() > g.input_bytes());
    }

    #[test]
    fn unrolling_inflation_multiplies_tiles() {
        let net = zoo::alexnet();
        let g = geom_of(&net, "conv1");
        let t = g.unroll_factor();
        let raw = TilePlan::conv(&g, &cfg(), 1.0).unwrap();
        let unrolled = TilePlan::conv(&g, &cfg(), t).unwrap();
        assert!(unrolled.spatial_tiles > raw.spatial_tiles);
        assert!(unrolled.dram_read_bytes() > raw.dram_read_bytes());
    }

    #[test]
    fn oversized_weights_chunk() {
        // VGG fc6 weights: 25088*4096*2 B ≈ 205 MB -> many chunks.
        let plan = TilePlan::flat(25_088 * 2, 4_096 * 2, 25_088 * 4_096 * 2, &cfg()).unwrap();
        assert!(plan.weight_chunks >= 196);
        assert!(!plan.weights_resident);
        assert_eq!(plan.spatial_tiles, 1);
    }

    #[test]
    fn grouped_layer_tiles_per_group() {
        let net = zoo::alexnet();
        let g = geom_of(&net, "conv2");
        let plan = TilePlan::conv(&g, &cfg(), 1.0).unwrap();
        assert_eq!(plan.groups, 2);
        assert_eq!(plan.tile_count(), plan.spatial_tiles * 2);
    }

    #[test]
    fn build_tiles_conserves_totals() {
        let net = zoo::vgg16();
        let g = geom_of(&net, "conv1_2");
        let plan = TilePlan::conv(&g, &cfg(), 1.0).unwrap();
        let template = vec![
            MacroOp::MacBurst {
                bursts: 1_000_003,
                active_lanes: 256,
                input_reads: 16,
                input_requests: 1,
                weight_reads: 0,
                psum_reads: 0,
                output_writes: 0,
            },
            MacroOp::AddStore { count: 999 },
        ];
        let tiles = plan.build_program(&template, 1, None).to_program().tiles;
        assert_eq!(tiles.len(), plan.tile_count());
        let mut bursts = 0;
        let mut adds = 0;
        for t in &tiles {
            for op in &t.ops {
                match *op {
                    MacroOp::MacBurst { bursts: b, .. } => bursts += b,
                    MacroOp::AddStore { count } => adds += count,
                    _ => {}
                }
            }
        }
        assert_eq!(bursts, 1_000_003);
        assert_eq!(adds, 999);
        // DRAM totals match the plan's aggregates.
        let read: u64 = tiles.iter().map(|t| t.dram_read_bytes).sum();
        let write: u64 = tiles.iter().map(|t| t.dram_write_bytes).sum();
        assert_eq!(read, plan.dram_read_bytes());
        assert_eq!(write, plan.dram_write_bytes());
    }

    #[test]
    fn batched_tiles_amortize_resident_weights() {
        let net = zoo::alexnet();
        let g = geom_of(&net, "conv2"); // 614 KB of weights: resident
        let plan = TilePlan::conv(&g, &cfg(), 1.0).unwrap();
        assert!(plan.weights_resident);
        let template = vec![MacroOp::OutputWrite { elems: 100 }];
        let one = plan.build_program(&template, 1, None).to_program().tiles;
        let four = plan.build_program(&template, 4, None).to_program().tiles;
        assert_eq!(four.len(), 4 * one.len());
        let total = |tiles: &[Tile]| tiles.iter().map(|t| t.dram_read_bytes).sum::<u64>();
        // 4 images fetch the input 4x but the weights once.
        let weights = g.weight_bytes();
        assert_eq!(total(&four), 4 * (total(&one) - weights) + weights);
    }

    #[test]
    fn oversized_batch_falls_back_to_image_outer() {
        // When the batch's activations cannot all stay resident, the plan
        // falls back to image-outer ordering and streams weights per image.
        let plan = TilePlan::flat(25_088 * 2, 4_096 * 2, 25_088 * 4_096 * 2, &cfg()).unwrap();
        let too_big = plan.max_weight_outer_batch + 1;
        let template: Vec<MacroOp> = Vec::new();
        let one: u64 = plan
            .build_program(&template, 1, None)
            .to_program()
            .tiles
            .iter()
            .map(|t| t.dram_read_bytes)
            .sum();
        let big: u64 = plan
            .build_program(&template, too_big, None)
            .to_program()
            .tiles
            .iter()
            .map(|t| t.dram_read_bytes)
            .sum();
        assert_eq!(big, too_big as u64 * one);
    }

    #[test]
    fn fc_batching_divides_weight_stream() {
        // VGG fc6: 196 MB of streaming weights. Weight-chunk-outer
        // batching fetches them once for the whole batch.
        let plan = TilePlan::flat(25_088 * 2, 4_096 * 2, 25_088 * 4_096 * 2, &cfg()).unwrap();
        assert!(plan.max_weight_outer_batch >= 16);
        let template = vec![MacroOp::MacBurst {
            bursts: 1_000,
            active_lanes: 256,
            input_reads: 16,
            input_requests: 1,
            weight_reads: 256,
            psum_reads: 0,
            output_writes: 0,
        }];
        let total = |tiles: &[Tile]| tiles.iter().map(|t| t.dram_read_bytes).sum::<u64>();
        let bursts = |tiles: &[Tile]| {
            tiles
                .iter()
                .flat_map(|t| &t.ops)
                .map(|op| match *op {
                    MacroOp::MacBurst { bursts, .. } => bursts,
                    _ => 0,
                })
                .sum::<u64>()
        };
        let one = plan.build_program(&template, 1, None).to_program().tiles;
        let sixteen = plan.build_program(&template, 16, None).to_program().tiles;
        // Compute scales with the batch...
        assert_eq!(bursts(&sixteen), 16 * bursts(&one));
        // ...but DRAM reads barely grow (weights fetched once).
        assert!(total(&sixteen) < total(&one) + 16 * 25_088 * 2 + 1024);
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn zero_batch_panics() {
        let net = zoo::alexnet();
        let g = geom_of(&net, "conv2");
        let plan = TilePlan::conv(&g, &cfg(), 1.0).unwrap();
        let _ = plan.build_program(&[], 0, None);
    }

    #[test]
    fn impossible_working_set_errors() {
        // A single kernel window whose operands exceed the whole buffer.
        let params = ConvParams::new(4096, 16, 31, 1, 0);
        let g = ConvGeometry::from_params(TensorShape::new(4096, 64, 64), &params).unwrap();
        assert!(matches!(
            TilePlan::conv(&g, &cfg(), 1.0),
            Err(CompileError::WorkingSetTooLarge { .. })
        ));
    }

    #[test]
    fn overflowing_row_splits_into_column_bands() {
        // One output row that cannot fit even alone: 64 maps x 60k-wide.
        let params = ConvParams::new(64, 64, 3, 1, 1);
        let g = ConvGeometry::from_params(TensorShape::new(64, 3, 60_000), &params).unwrap();
        let plan = TilePlan::conv(&g, &cfg(), 1.0).unwrap();
        assert!(plan.spatial_tiles > g.out_y);
        assert!(plan.input_tile_bytes + plan.output_tile_bytes <= cfg().inout_buf_bytes as u64);
    }
}
