//! Lockstep batched transient stepping: many independent fields through one network.
//!
//! Trace-level side-channel simulation (`tsc3d-sca`) needs the *same* RC network's
//! response to thousands of power maps — one adjoint pass per attack (one lane per
//! sensor, see below), or per trace for its stepped test oracle. The scalar
//! [`TransientSolver`] pays the per-node overhead — index arithmetic, boundary branches,
//! conductance loads — once per node per step *per trace*. [`BatchTransientSolver`] steps
//! a batch of traces ("lanes") in lockstep over structure-of-arrays fields laid out
//! `[node × lane]`, so every per-node quantity is loaded once per step and the inner loop
//! is a contiguous, vectorizable sweep over the lanes.
//!
//! **Bit-identity.** For each lane the arithmetic is the exact per-node operation
//! sequence of [`TransientSolver::step`] — the boundary-damping term first, then the
//! +x, −x, +y, −y, +z, −z neighbour flows in that order, then `t + (flow / C) · dt` —
//! on the same operands. Lanes never mix, so every lane's temperature series is
//! bit-identical to a scalar simulation of that trace, for any batch size.
//!
//! **Adjoint step response.** Trace simulation applies a *constant* power map to a field
//! that starts at ambient, so a reading is linear in that map. With `u = T − T_amb`, one
//! substep is `u ← A·u + dt·C⁻¹p` where `A = I − dt·C⁻¹K`, `K` the symmetric conductance
//! matrix (boundary paths included) and `C` the diagonal capacity. After `K` substeps
//! sensor `s` reads `e_sᵀu = dt·Σ_{j<K} e_sᵀAʲC⁻¹p = dt·Σ_{j<K}(C⁻¹Aᵀʲe_s)·p`.
//! Symmetric `K` gives `Aᵀ = C·A·C⁻¹`, so `C⁻¹Aᵀʲ = AʲC⁻¹` and the reading is
//! `dt·Σ_{j<K}(AʲC⁻¹e_s)·p`: the weights come from stepping `C⁻¹e_s` forward with zero
//! power and ambient 0 — one lane per *sensor* instead of one per *trace*
//! ([`BatchTransientSolver::step_response`]). The summation order differs from stepping
//! a trace, so readings agree with the stepped field to roundoff (≲1e-12 K), not bit
//! for bit.

use crate::transient::TransientSolver;
use crate::SolveError;
use std::sync::Arc;
use tsc3d_geometry::{GridMap, GridPos};

/// The stepping plan of the whole network in CSR-style structure-of-arrays form:
/// everything [`BatchTransientSolver::step`] needs, resolved once at construction so the
/// hot loop carries no index arithmetic, no boundary branches, and the minimum possible
/// per-node memory traffic (the plan stream is read once per step sweep and competes with
/// the lane fields for bandwidth).
#[derive(Debug, Default)]
struct StepPlan {
    /// Conductance towards ambient (boundary paths) per node in W/K.
    gb: Vec<f64>,
    /// Heat capacity per node in J/K.
    cap: Vec<f64>,
    /// Exclusive prefix offsets into `neighbor`/`g`: node `i`'s neighbours occupy
    /// `starts[i]..starts[i + 1]`.
    starts: Vec<u32>,
    /// Neighbour node indices, per node in the scalar engine's flow-accumulation order:
    /// +x, −x, +y, −y, +z, −z, keeping only the neighbours that exist.
    neighbor: Vec<u32>,
    /// Conductance towards the matching `neighbor` entry in W/K.
    g: Vec<f64>,
}

/// The mutable side of a batched simulation: `lanes` independent temperature fields and
/// power injections interleaved `[node × lane]` (lane-contiguous per node).
#[derive(Debug, Clone)]
pub struct BatchTransientState {
    lanes: usize,
    /// Node temperatures in kelvin, `node_count × lanes`, node-major.
    temps: Vec<f64>,
    /// Scratch for the out-of-place Jacobi step.
    next: Vec<f64>,
    /// Injected power per node per lane in watts, same layout as `temps`.
    power: Vec<f64>,
    /// Per-lane flow accumulator of the node currently being stepped.
    flow: Vec<f64>,
}

impl BatchTransientState {
    /// Number of lanes (fields stepped in lockstep).
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

/// Lockstep batched variant of [`TransientSolver`]: one shared conductance network and
/// capacity vector, `lanes` independent transients advanced per step.
///
/// The scalar engine stays the bit-tested reference; this engine exists purely for
/// throughput and is equivalence-tested against it lane by lane (see module docs for the
/// bit-identity argument).
///
/// ```
/// use std::sync::Arc;
/// use tsc3d_geometry::{Grid, GridMap, Outline, Stack};
/// use tsc3d_thermal::{BatchTransientSolver, ThermalConfig, TransientSolver, TsvField};
///
/// let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
/// let grid = Grid::square(stack.outline().rect(), 8);
/// let config = ThermalConfig::default_for(stack);
/// let scalar = Arc::new(TransientSolver::new(&config, grid, &[TsvField::empty(grid)]).unwrap());
/// let batched = BatchTransientSolver::new(Arc::clone(&scalar));
/// let mut state = batched.state(4);
/// let maps = [GridMap::constant(grid, 2.0 / 64.0), GridMap::zeros(grid)];
/// for lane in 0..4 {
///     batched.set_power(&mut state, lane, &maps).unwrap();
/// }
/// batched.advance(&mut state, 0.01);
/// ```
#[derive(Debug)]
pub struct BatchTransientSolver {
    inner: Arc<TransientSolver>,
    plan: StepPlan,
}

impl BatchTransientSolver {
    /// Builds the batched engine over an existing scalar solver: the network and the
    /// capacity vector are shared (built once per mitigation state, not per trace), the
    /// per-node neighbour plans are resolved here.
    pub fn new(inner: Arc<TransientSolver>) -> Self {
        let n = &inner.network;
        let bins = n.cols * n.rows;
        let mut plan = StepPlan::default();
        for idx in 0..inner.node_count() {
            let b = idx % bins;
            let l = idx / bins;
            let col = b % n.cols;
            let row = b / n.cols;
            plan.gb.push(n.gb[idx]);
            plan.cap.push(inner.cap[idx]);
            plan.starts.push(plan.neighbor.len() as u32);
            let mut push = |node: usize, g: f64| {
                plan.neighbor.push(node as u32);
                plan.g.push(g);
            };
            // The scalar step's flow-accumulation order: +x, −x, +y, −y, +z, −z.
            if col + 1 < n.cols {
                push(idx + 1, n.gx[idx]);
            }
            if col > 0 {
                push(idx - 1, n.gx[idx - 1]);
            }
            if row + 1 < n.rows {
                push(idx + n.cols, n.gy[idx]);
            }
            if row > 0 {
                push(idx - n.cols, n.gy[idx - n.cols]);
            }
            if l + 1 < n.layers {
                push(idx + bins, n.gz[idx]);
            }
            if l > 0 {
                push(idx - bins, n.gz[idx - bins]);
            }
        }
        plan.starts.push(plan.neighbor.len() as u32);
        Self { inner, plan }
    }

    /// The shared scalar solver (network topology, stability bound, sensor extraction).
    pub fn inner(&self) -> &Arc<TransientSolver> {
        &self.inner
    }

    /// A fresh state of `lanes` lanes: every node of every lane at ambient, zero power.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn state(&self, lanes: usize) -> BatchTransientState {
        assert!(lanes > 0, "a batch needs at least one lane");
        let n = self.inner.node_count() * lanes;
        BatchTransientState {
            lanes,
            temps: vec![self.inner.ambient(); n],
            next: vec![self.inner.ambient(); n],
            power: vec![0.0; n],
            flow: vec![0.0; lanes],
        }
    }

    /// Resets every lane to ambient temperatures (power is left as set).
    pub fn reset(&self, state: &mut BatchTransientState) {
        state.temps.fill(self.inner.ambient());
    }

    /// Sets lane `lane`'s injected power from per-die maps, the batched counterpart of
    /// [`TransientSolver::set_power`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::PowerMapCount`] / [`SolveError::GridMismatch`] on mismatched
    /// inputs.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn set_power(
        &self,
        state: &mut BatchTransientState,
        lane: usize,
        power_per_die: &[GridMap],
    ) -> Result<(), SolveError> {
        assert!(lane < state.lanes, "lane {lane} outside the batch");
        if power_per_die.len() != self.inner.dies() {
            return Err(SolveError::PowerMapCount {
                got: power_per_die.len(),
                expected: self.inner.dies(),
            });
        }
        if power_per_die.iter().any(|m| m.grid() != self.inner.grid()) {
            return Err(SolveError::GridMismatch);
        }
        let lanes = state.lanes;
        let bins = self.inner.grid().bins();
        for node in 0..self.inner.node_count() {
            state.power[node * lanes + lane] = 0.0;
        }
        for (die, map) in power_per_die.iter().enumerate() {
            let l = self.inner.active_layers[die];
            for (b, &w) in map.values().iter().enumerate() {
                state.power[(l * bins + b) * lanes + lane] = w;
            }
        }
        Ok(())
    }

    /// Advances every lane by one explicit-Euler step of `dt` seconds — the lockstep
    /// counterpart of [`TransientSolver::step`], bit-identical per lane.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive.
    pub fn step(&self, state: &mut BatchTransientState, dt: f64) {
        self.step_towards(state, dt, self.inner.ambient());
    }

    /// One explicit-Euler step with the boundary paths pulling towards `ambient`: the
    /// physical step uses the network's ambient, the adjoint pass of
    /// [`BatchTransientSolver::step_response`] steps temperature *rises* (ambient 0).
    fn step_towards(&self, state: &mut BatchTransientState, dt: f64, ambient: f64) {
        assert!(dt > 0.0, "dt must be positive");
        // Monomorphized lane counts keep the inner loops fixed-size (register-resident
        // flow accumulators, no bounds checks, full vectorization); the power-of-two
        // batch sizes the sca layer uses all hit a specialized path. Per-lane arithmetic
        // is identical in every variant, so this dispatch cannot affect bit-identity.
        match state.lanes {
            1 => self.step_lanes::<1>(state, dt, ambient),
            2 => self.step_lanes::<2>(state, dt, ambient),
            4 => self.step_lanes::<4>(state, dt, ambient),
            8 => self.step_lanes::<8>(state, dt, ambient),
            16 => self.step_lanes::<16>(state, dt, ambient),
            _ => self.step_dyn(state, dt, ambient),
        }
    }

    /// The fixed-lane-count step: `L` is a compile-time constant, so `flow` lives in
    /// registers and every lane loop unrolls.
    fn step_lanes<const L: usize>(&self, state: &mut BatchTransientState, dt: f64, ambient: f64) {
        let plan = &self.plan;
        let BatchTransientState {
            temps, next, power, ..
        } = state;
        let temps: &[f64] = temps;
        for idx in 0..plan.gb.len() {
            let base = idx * L;
            let here: &[f64; L] = temps[base..base + L].try_into().expect("lane slice");
            let injected: &[f64; L] = power[base..base + L].try_into().expect("lane slice");
            // Per lane this is exactly the scalar flow accumulation: boundary term
            // first, then the existing neighbours in +x, −x, +y, −y, +z, −z order.
            let gb = plan.gb[idx];
            let mut flow = [0.0f64; L];
            for lane in 0..L {
                flow[lane] = injected[lane] - gb * (here[lane] - ambient);
            }
            let edges = plan.starts[idx] as usize..plan.starts[idx + 1] as usize;
            for (&neighbor, &g) in plan.neighbor[edges.clone()].iter().zip(&plan.g[edges]) {
                let nb = neighbor as usize * L;
                let there: &[f64; L] = temps[nb..nb + L].try_into().expect("lane slice");
                for lane in 0..L {
                    flow[lane] += g * (there[lane] - here[lane]);
                }
            }
            let cap = plan.cap[idx];
            let out: &mut [f64; L] = (&mut next[base..base + L]).try_into().expect("lane slice");
            for lane in 0..L {
                out[lane] = here[lane] + (flow[lane] / cap) * dt;
            }
        }
        std::mem::swap(&mut state.temps, &mut state.next);
    }

    /// The dynamic-lane-count fallback, same arithmetic with a heap flow accumulator.
    fn step_dyn(&self, state: &mut BatchTransientState, dt: f64, ambient: f64) {
        let lanes = state.lanes;
        let plan = &self.plan;
        let BatchTransientState {
            temps,
            next,
            power,
            flow,
            ..
        } = state;
        let temps: &[f64] = temps;
        for idx in 0..plan.gb.len() {
            let base = idx * lanes;
            let here = &temps[base..base + lanes];
            let injected = &power[base..base + lanes];
            let gb = plan.gb[idx];
            for lane in 0..lanes {
                flow[lane] = injected[lane] - gb * (here[lane] - ambient);
            }
            let edges = plan.starts[idx] as usize..plan.starts[idx + 1] as usize;
            for (&neighbor, &g) in plan.neighbor[edges.clone()].iter().zip(&plan.g[edges]) {
                let nb = neighbor as usize * lanes;
                let there = &temps[nb..nb + lanes];
                for lane in 0..lanes {
                    flow[lane] += g * (there[lane] - here[lane]);
                }
            }
            let cap = plan.cap[idx];
            let out = &mut next[base..base + lanes];
            for lane in 0..lanes {
                out[lane] = here[lane] + (flow[lane] / cap) * dt;
            }
        }
        std::mem::swap(&mut state.temps, &mut state.next);
    }

    /// Advances every lane by `duration` seconds, substepping within the scalar engine's
    /// stability bound — same substep count and `dt` as [`TransientSolver::advance`].
    /// Returns the number of steps taken (per lane).
    ///
    /// # Panics
    ///
    /// Panics if `duration` is not positive.
    pub fn advance(&self, state: &mut BatchTransientState, duration: f64) -> usize {
        assert!(duration > 0.0, "duration must be positive");
        let steps = self.inner.steps_for(duration);
        let dt = duration / steps as f64;
        for step in 0..steps {
            self.step(state, dt);
            // Live substep progress within this lockstep window; one relaxed load per
            // substep when events are off (the substep itself is O(nodes × lanes)).
            tsc3d_obs::emit(|| tsc3d_obs::EventKind::Progress {
                phase: "batch_window",
                done: (step + 1) as u64,
                total: steps as u64,
            });
        }
        steps
    }

    /// The temperature of one bin of die `die`'s active layer in lane `lane` — the
    /// batched counterpart of [`TransientSolver::temperature_at`].
    pub fn temperature_at(
        &self,
        state: &BatchTransientState,
        lane: usize,
        die: usize,
        pos: GridPos,
    ) -> f64 {
        assert!(lane < state.lanes, "lane {lane} outside the batch");
        let bins = self.inner.grid().bins();
        let l = self.inner.active_layers[die];
        let node = l * bins + self.inner.grid().flat_index(pos);
        state.temps[node * state.lanes + lane]
    }

    /// Number of substeps [`BatchTransientSolver::advance`] uses for a duration (the
    /// scalar engine's count, delegated so the one stability margin stays authoritative).
    pub fn steps_for(&self, duration: f64) -> usize {
        self.inner.steps_for(duration)
    }

    /// The adjoint step response of `sources` (`(die, bin)` points on the dies' active
    /// layers) at `samples` sample boundaries `sample_dt` apart: one lane per source,
    /// stepped once through the whole window (see the module docs for the derivation).
    ///
    /// Each lane starts from `C⁻¹e_s` with zero power and ambient 0; before every substep
    /// the field is added into a running sum, and `dt · sum` is snapshotted at each sample
    /// boundary. Substep count and `dt` are those of [`BatchTransientSolver::advance`]
    /// over `sample_dt`, so the weights reproduce a stepped reading from an ambient start
    /// up to floating-point roundoff.
    ///
    /// # Panics
    ///
    /// Panics if `sample_dt` is not positive, `samples` is zero, or a source lies off the
    /// stack.
    pub fn step_response(
        &self,
        sources: &[(usize, GridPos)],
        sample_dt: f64,
        samples: usize,
    ) -> StepResponse {
        assert!(sample_dt > 0.0, "sample_dt must be positive");
        assert!(samples > 0, "a step response needs at least one sample");
        let inner = &self.inner;
        let grid = inner.grid();
        let bins = grid.bins();
        let dies = inner.dies();
        let steps = self.steps_for(sample_dt);
        let dt = sample_dt / steps as f64;
        let mut maps = vec![GridMap::zeros(grid); samples * sources.len() * dies];
        let mut first = 0;
        while first < sources.len() {
            // The widest monomorphized lane count that fits, so no lane is padding: a
            // 3×3 sensor array runs as 8 + 1 lanes, faster than one padded 16-lane pass.
            let lanes = [16, 8, 4, 2, 1]
                .into_iter()
                .find(|&width| width <= sources.len() - first)
                .expect("width 1 always fits");
            let mut state = self.state(lanes);
            state.temps.fill(0.0);
            for (lane, &(die, pos)) in sources[first..first + lanes].iter().enumerate() {
                assert!(die < dies, "source die {die} outside the {dies}-die stack");
                let node = inner.active_layers[die] * bins + grid.flat_index(pos);
                state.temps[node * lanes + lane] = 1.0 / inner.cap[node];
            }
            // Running field sums, kept only on the active layers (where power enters).
            let layer_len = bins * lanes;
            let mut sums = vec![0.0; dies * layer_len];
            for sample in 0..samples {
                for _ in 0..steps {
                    for (sum, &layer) in sums.chunks_exact_mut(layer_len).zip(&inner.active_layers)
                    {
                        let field = &state.temps[layer * layer_len..(layer + 1) * layer_len];
                        for (acc, &t) in sum.iter_mut().zip(field) {
                            *acc += t;
                        }
                    }
                    self.step_towards(&mut state, dt, 0.0);
                }
                for lane in 0..lanes {
                    let source = first + lane;
                    for (die, sum) in sums.chunks_exact(layer_len).enumerate() {
                        let map = &mut maps[(sample * sources.len() + source) * dies + die];
                        for (b, w) in map.values_mut().iter_mut().enumerate() {
                            *w = dt * sum[b * lanes + lane];
                        }
                    }
                }
            }
            first += lanes;
        }
        StepResponse {
            sources: sources.len(),
            dies,
            maps,
            substeps: samples * steps,
        }
    }
}

/// The per-bin power sensitivities of a set of sensor points over a sampled window:
/// the output of [`BatchTransientSolver::step_response`].
///
/// For a network starting at ambient under a constant injection `p` (watts per bin of
/// each die's active layer), the explicit-Euler temperature of source `s` at the end of
/// sample `k` is `ambient + Σ_die Σ_bin w[k][s][die][bin] · p[die][bin]`.
#[derive(Debug)]
pub struct StepResponse {
    sources: usize,
    dies: usize,
    /// Weight maps in K/W, indexed `(sample · sources + source) · dies + die`.
    maps: Vec<GridMap>,
    substeps: usize,
}

impl StepResponse {
    /// The sensitivity of `source` at the end of sample `sample`: one map per die, in
    /// kelvin per watt injected into each bin of that die's active layer.
    ///
    /// # Panics
    ///
    /// Panics if `sample` or `source` lies outside the response.
    pub fn weights(&self, sample: usize, source: usize) -> &[GridMap] {
        assert!(
            source < self.sources,
            "source {source} outside the response"
        );
        let start = (sample * self.sources + source) * self.dies;
        &self.maps[start..start + self.dies]
    }

    /// Kernel work of the pass: substeps × sources.
    pub fn lane_steps(&self) -> u64 {
        (self.substeps * self.sources) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ThermalConfig, TsvField};
    use tsc3d_geometry::{Grid, Outline, Rect, Stack};

    fn setup(bins: usize) -> (Arc<TransientSolver>, Vec<Vec<GridMap>>) {
        let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
        let grid = Grid::square(stack.outline().rect(), bins);
        let config = ThermalConfig::default_for(stack);
        let tsvs = vec![TsvField::uniform(grid, 0.04)];
        let solver = Arc::new(TransientSolver::new(&config, grid, &tsvs).unwrap());
        // A family of distinct per-lane power patterns.
        let patterns = (0..8usize)
            .map(|i| {
                let mut hot = GridMap::zeros(grid);
                let offset = 37.0 * i as f64;
                hot.splat_power(
                    &Rect::new(100.0 + offset, 150.0 + offset, 600.0, 450.0),
                    1.5 + 0.25 * i as f64,
                );
                let uniform = GridMap::constant(grid, (0.4 + 0.1 * i as f64) / grid.bins() as f64);
                vec![hot, uniform]
            })
            .collect();
        (solver, patterns)
    }

    #[test]
    fn lanes_match_the_scalar_engine_bit_for_bit() {
        let (solver, patterns) = setup(9);
        let duration = 0.003;
        // Scalar references, one per pattern.
        let scalar: Vec<_> = patterns
            .iter()
            .map(|maps| {
                let mut state = solver.state();
                solver.set_power(&mut state, maps).unwrap();
                let steps = solver.advance(&mut state, duration);
                (state, steps)
            })
            .collect();

        let batched = BatchTransientSolver::new(Arc::clone(&solver));
        for lanes in [1usize, 3, 8] {
            let mut state = batched.state(lanes);
            assert_eq!(state.lanes(), lanes);
            for (lane, pattern) in patterns.iter().take(lanes).enumerate() {
                batched.set_power(&mut state, lane, pattern).unwrap();
            }
            batched.reset(&mut state);
            let steps = batched.advance(&mut state, duration);
            for (lane, (reference, ref_steps)) in scalar.iter().take(lanes).enumerate() {
                assert_eq!(steps, *ref_steps, "{lanes} lanes");
                for die in 0..solver.dies() {
                    for pos in solver.grid().positions() {
                        assert_eq!(
                            batched.temperature_at(&state, lane, die, pos),
                            solver.temperature_at(reference, die, pos),
                            "{lanes} lanes, lane {lane}, die {die}, {pos}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reset_and_power_are_per_lane() {
        let (solver, patterns) = setup(6);
        let batched = BatchTransientSolver::new(Arc::clone(&solver));
        let mut state = batched.state(2);
        batched.set_power(&mut state, 0, &patterns[0]).unwrap();
        // Lane 1 keeps zero power: after stepping, it must stay at ambient.
        batched.advance(&mut state, 0.002);
        let pos = solver.grid().positions().next().unwrap();
        assert!(batched.temperature_at(&state, 0, 0, pos) > solver.ambient());
        for die in 0..solver.dies() {
            for pos in solver.grid().positions() {
                assert_eq!(
                    batched.temperature_at(&state, 1, die, pos),
                    solver.ambient(),
                    "unpowered lane must not heat"
                );
            }
        }
        // Reset returns every lane to ambient.
        batched.reset(&mut state);
        assert!(state.temps.iter().all(|&t| t == solver.ambient()));
    }

    /// The adjoint reading above ambient: `Σ_die Σ_bin w · p`.
    fn rise(response: &StepResponse, sample: usize, source: usize, power: &[GridMap]) -> f64 {
        response
            .weights(sample, source)
            .iter()
            .zip(power)
            .map(|(w, p)| {
                w.values()
                    .iter()
                    .zip(p.values())
                    .map(|(w, p)| w * p)
                    .sum::<f64>()
            })
            .sum()
    }

    /// Sensor points on both dies: corners, centre and an off-centre bin.
    fn sources(grid: tsc3d_geometry::Grid) -> Vec<(usize, GridPos)> {
        let last = grid.cols() - 1;
        let mut out = Vec::new();
        for die in 0..2 {
            for pos in [
                GridPos::new(0, 0),
                GridPos::new(last, last),
                GridPos::new(last / 2, last / 2),
                GridPos::new(1, last - 1),
            ] {
                out.push((die, pos));
            }
        }
        out
    }

    #[test]
    fn lumped_step_response_matches_the_closed_form_euler_sum() {
        // One uncoupled node per die: the weight after K substeps of dt is the geometric
        // sum dt/c · Σ_{j<K} (1 − dt·g/c)^j = (1 − (1 − dt·g/c)^K) / g.
        let config = ThermalConfig::default_for(Stack::two_die(Outline::new(4000.0, 4000.0)));
        let solver = Arc::new(TransientSolver::lumped(&config));
        let batched = BatchTransientSolver::new(Arc::clone(&solver));
        let origin = GridPos::new(0, 0);
        let sources = [(0, origin), (1, origin)];
        for sample_dt in [solver.max_stable_dt() * 0.3, solver.max_stable_dt() * 40.0] {
            let samples = 3;
            let response = batched.step_response(&sources, sample_dt, samples);
            let steps = batched.steps_for(sample_dt);
            let dt = sample_dt / steps as f64;
            assert_eq!(response.lane_steps(), (samples * steps * 2) as u64);
            for (source, &(die, _)) in sources.iter().enumerate() {
                let (g, c) = (solver.network.gb[die], solver.cap[die]);
                for sample in 0..samples {
                    let k = ((sample + 1) * steps) as i32;
                    let expected = (1.0 - (1.0 - dt * g / c).powi(k)) / g;
                    let weights = response.weights(sample, source);
                    let got = weights[die].values()[0];
                    assert!(
                        (got - expected).abs() <= 1e-12 * expected.abs(),
                        "die {die} sample {sample}: {got} vs {expected}"
                    );
                    // The dies are uncoupled: no cross-die sensitivity.
                    assert_eq!(weights[1 - die].values()[0], 0.0);
                }
            }
        }
    }

    #[test]
    fn step_response_settles_to_the_steady_state_solution() {
        // Over a long dwell W·p must reach the steady-state solver's temperatures on the
        // identical network.
        let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
        let grid = Grid::square(stack.outline().rect(), 8);
        let config = ThermalConfig::default_for(stack);
        let tsvs = vec![TsvField::uniform(grid, 0.05)];
        let mut hotspot = GridMap::zeros(grid);
        hotspot.splat_power(&Rect::new(0.0, 0.0, 700.0, 500.0), 2.0);
        let power = vec![hotspot, GridMap::constant(grid, 1.0 / 64.0)];
        let steady = crate::SteadyStateSolver::new(config.clone())
            .solve(&power, &tsvs)
            .unwrap();
        let solver = Arc::new(TransientSolver::new(&config, grid, &tsvs).unwrap());
        let batched = BatchTransientSolver::new(Arc::clone(&solver));
        let sources = sources(grid);
        let response = batched.step_response(&sources, 0.5, 1);
        for (source, &(die, pos)) in sources.iter().enumerate() {
            let settled = solver.ambient() + rise(&response, 0, source, &power);
            let reference = steady.die_temperature(die).get(pos);
            assert!(
                (settled - reference).abs() < 0.05,
                "die {die} {pos}: adjoint {settled} vs steady {reference}"
            );
        }
    }

    #[test]
    fn step_response_matches_the_stepped_field() {
        let stack = Stack::two_die(Outline::new(2000.0, 2000.0));
        let grid = Grid::square(stack.outline().rect(), 9);
        let config = ThermalConfig::default_for(stack);
        for density in [0.0, 0.02, 0.2] {
            let tsvs = vec![TsvField::uniform(grid, density)];
            let solver = Arc::new(TransientSolver::new(&config, grid, &tsvs).unwrap());
            let batched = BatchTransientSolver::new(Arc::clone(&solver));
            let (_, patterns) = setup(9);
            let sources = sources(grid);
            for samples in [1usize, 3] {
                let sample_dt = 0.006 / samples as f64;
                let response = batched.step_response(&sources, sample_dt, samples);
                let mut state = batched.state(patterns.len());
                for (lane, pattern) in patterns.iter().enumerate() {
                    batched.set_power(&mut state, lane, pattern).unwrap();
                }
                for sample in 0..samples {
                    batched.advance(&mut state, sample_dt);
                    for (lane, pattern) in patterns.iter().enumerate() {
                        for (source, &(die, pos)) in sources.iter().enumerate() {
                            let stepped = batched.temperature_at(&state, lane, die, pos);
                            let adjoint =
                                solver.ambient() + rise(&response, sample, source, pattern);
                            assert!(
                                (stepped - adjoint).abs() <= 1e-9,
                                "density {density}, {samples} samples, sample {sample}, \
                                 lane {lane}, die {die} {pos}: {stepped} vs {adjoint}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn input_validation_is_typed() {
        let (solver, _) = setup(4);
        let batched = BatchTransientSolver::new(Arc::clone(&solver));
        let mut state = batched.state(2);
        let err = batched
            .set_power(&mut state, 0, &[GridMap::zeros(solver.grid())])
            .unwrap_err();
        assert!(matches!(
            err,
            SolveError::PowerMapCount {
                expected: 2,
                got: 1
            }
        ));
        let other = Grid::square(Rect::from_size(2000.0, 2000.0), 5);
        let err = batched
            .set_power(
                &mut state,
                0,
                &[GridMap::zeros(other), GridMap::zeros(other)],
            )
            .unwrap_err();
        assert!(matches!(err, SolveError::GridMismatch));
    }
}
