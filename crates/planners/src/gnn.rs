//! GNNMP-style graph planner (emulated edge scorer).
//!
//! GNNMP (ref. \[50\]) samples the C-space, uses a graph neural network to decide
//! which edges of the resulting random geometric graph to collision-check,
//! and smooths the found path. The GNN is emulated by a clearance-informed
//! edge prior (see DESIGN.md): edges through low-clearance space are
//! deprioritized, so the lazy search checks fewer colliding edges than a
//! naive lazy planner — the workload the paper evaluates.

use crate::context::{PlanContext, Stage};
use crate::planner::{PlanResult, Planner};
use crate::util::path_length;
use copred_kinematics::Config;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// The GNNMP-like planner.
#[derive(Debug, Clone)]
pub struct GnnmpEmulator {
    /// C-space samples in the graph (plus start and goal).
    pub n_samples: usize,
    /// Neighbors per node in the geometric graph.
    pub k_neighbors: usize,
    /// Shortcut-smoothing attempts after a path is found (the S2 stage).
    pub smoothing_rounds: usize,
    /// Maximum lazy-search repair iterations.
    pub max_repairs: usize,
}

impl Default for GnnmpEmulator {
    fn default() -> Self {
        GnnmpEmulator {
            n_samples: 150,
            k_neighbors: 8,
            smoothing_rounds: 12,
            max_repairs: 400,
        }
    }
}

#[derive(PartialEq)]
struct QueueItem {
    cost: f64,
    node: usize,
}

impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on cost.
        other.cost.total_cmp(&self.cost)
    }
}

impl GnnmpEmulator {
    /// "GNN" edge prior: geometric length inflated by a clearance penalty at
    /// the edge midpoint, so the search prefers edges through open space.
    fn edge_prior(&self, ctx: &PlanContext<'_>, a: &Config, b: &Config) -> f64 {
        let mid = a.lerp(b, 0.5);
        let mut obbs = Vec::new();
        ctx.robot().fk_obbs(&mid, &mut obbs);
        let clearance = obbs
            .iter()
            .map(|o| ctx.env().clearance(o.center))
            .fold(f64::INFINITY, f64::min);
        a.distance(b) * (1.0 + 0.5 / (clearance + 0.05))
    }

    fn shortest_path(
        &self,
        nodes: &[Config],
        adj: &[Vec<(usize, f64)>],
        invalid: &HashSet<(usize, usize)>,
        start: usize,
        goal: usize,
    ) -> Option<Vec<usize>> {
        let mut dist: HashMap<usize, f64> = HashMap::new();
        let mut prev: HashMap<usize, usize> = HashMap::new();
        let mut heap = BinaryHeap::new();
        dist.insert(start, 0.0);
        heap.push(QueueItem {
            cost: nodes[start].distance(&nodes[goal]),
            node: start,
        });
        while let Some(QueueItem { node, .. }) = heap.pop() {
            if node == goal {
                let mut path = vec![goal];
                let mut cur = goal;
                while let Some(&p) = prev.get(&cur) {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            let d = dist[&node];
            for &(next, w) in &adj[node] {
                if invalid.contains(&key(node, next)) {
                    continue;
                }
                let nd = d + w;
                if nd < *dist.get(&next).unwrap_or(&f64::INFINITY) {
                    dist.insert(next, nd);
                    prev.insert(next, node);
                    heap.push(QueueItem {
                        cost: nd + nodes[next].distance(&nodes[goal]),
                        node: next,
                    });
                }
            }
        }
        None
    }
}

fn key(a: usize, b: usize) -> (usize, usize) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Planner for GnnmpEmulator {
    fn name(&self) -> &'static str {
        "gnnmp"
    }

    fn plan(
        &self,
        ctx: &mut PlanContext<'_>,
        start: &Config,
        goal: &Config,
        rng: &mut StdRng,
    ) -> PlanResult {
        ctx.set_stage(Stage::Explore);
        if !ctx.pose_free(start) || !ctx.pose_free(goal) {
            return PlanResult::failure(0);
        }
        // Sample graph nodes (pose checks are part of the recorded workload).
        let mut nodes = vec![start.clone(), goal.clone()];
        let mut guard = 0;
        while nodes.len() < self.n_samples + 2 && guard < self.n_samples * 20 {
            guard += 1;
            let q = ctx.robot().sample_uniform(rng);
            if ctx.pose_free(&q) {
                nodes.push(q);
            }
        }
        // k-nearest-neighbor graph with GNN-prior edge weights.
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nodes.len()];
        for i in 0..nodes.len() {
            let mut dists: Vec<(usize, f64)> = (0..nodes.len())
                .filter(|&j| j != i)
                .map(|j| (j, nodes[i].distance(&nodes[j])))
                .collect();
            dists.sort_by(|a, b| a.1.total_cmp(&b.1));
            for &(j, _) in dists.iter().take(self.k_neighbors) {
                let w = self.edge_prior(ctx, &nodes[i], &nodes[j]);
                adj[i].push((j, w));
                adj[j].push((i, w));
            }
        }
        // Lazy search: shortest path on presumed-valid edges, validate edges
        // in order, knock out the first colliding edge, repeat.
        let mut invalid: HashSet<(usize, usize)> = HashSet::new();
        let mut valid: HashSet<(usize, usize)> = HashSet::new();
        let mut iterations = 0;
        for _ in 0..self.max_repairs {
            iterations += 1;
            let Some(path) = self.shortest_path(&nodes, &adj, &invalid, 0, 1) else {
                return PlanResult::failure(iterations);
            };
            let mut broken = false;
            for w in path.windows(2) {
                let e = key(w[0], w[1]);
                if valid.contains(&e) {
                    continue;
                }
                if ctx.motion_free(&nodes[w[0]], &nodes[w[1]]) {
                    valid.insert(e);
                } else {
                    invalid.insert(e);
                    broken = true;
                    break;
                }
            }
            if !broken {
                let mut cfg_path: Vec<Config> = path.iter().map(|&i| nodes[i].clone()).collect();
                // Shortcut smoothing still explores (its checks often
                // collide); only the final trajectory validation is S2.
                for _ in 0..self.smoothing_rounds {
                    if cfg_path.len() < 3 {
                        break;
                    }
                    let i = rng.gen_range(0..cfg_path.len() - 2);
                    let j = rng.gen_range(i + 2..cfg_path.len());
                    if ctx.motion_free(&cfg_path[i], &cfg_path[j]) {
                        cfg_path.drain(i + 1..j);
                    }
                }
                ctx.set_stage(Stage::Validate);
                for w in cfg_path.windows(2) {
                    ctx.motion_free(&w[0], &w[1]);
                }
                debug_assert!(path_length(&cfg_path) > 0.0 || cfg_path.len() <= 1);
                return PlanResult::success(cfg_path, iterations);
            }
        }
        PlanResult::failure(iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copred_collision::Environment;
    use copred_geometry::{Aabb, Vec3};
    use copred_kinematics::{presets, Robot};
    use rand::SeedableRng;

    fn gap_world() -> (Robot, Environment) {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::new(
                Vec3::new(-0.05, -1.0, -0.1),
                Vec3::new(0.05, 0.5, 0.1),
            )],
        );
        (robot, env)
    }

    #[test]
    fn solves_gap_world_with_valid_path() {
        let (robot, env) = gap_world();
        let mut ctx = PlanContext::new(&robot, &env, 0.05);
        let mut rng = StdRng::seed_from_u64(41);
        let start = Config::new(vec![-0.6, 0.0]);
        let goal = Config::new(vec![0.6, 0.0]);
        let result = GnnmpEmulator::default().plan(&mut ctx, &start, &goal, &mut rng);
        assert!(result.solved(), "gnnmp failed gap world");
        let path = result.path.unwrap();
        assert_eq!(path[0], start);
        assert_eq!(*path.last().unwrap(), goal);
        for w in path.windows(2) {
            let poses =
                copred_kinematics::Motion::new(w[0].clone(), w[1].clone()).discretize_by_step(0.05);
            assert!(!copred_collision::motion_collides(&robot, &env, &poses));
        }
    }

    #[test]
    fn produces_both_stages() {
        let (robot, env) = gap_world();
        let mut ctx = PlanContext::new(&robot, &env, 0.05);
        let mut rng = StdRng::seed_from_u64(42);
        let result = GnnmpEmulator::default().plan(
            &mut ctx,
            &Config::new(vec![-0.6, -0.3]),
            &Config::new(vec![0.6, -0.3]),
            &mut rng,
        );
        assert!(result.solved());
        let log = ctx.into_log();
        assert!(log.stage_records(Stage::Explore).count() > 0);
        assert!(log.stage_records(Stage::Validate).count() > 0);
    }

    #[test]
    fn smoothing_shortens_paths() {
        let (robot, env) = gap_world();
        let mut rng = StdRng::seed_from_u64(43);
        let start = Config::new(vec![-0.6, 0.7]);
        let goal = Config::new(vec![0.6, 0.7]);
        // With heavy smoothing.
        let mut ctx = PlanContext::new(&robot, &env, 0.05);
        let smooth = GnnmpEmulator {
            smoothing_rounds: 30,
            ..Default::default()
        }
        .plan(&mut ctx, &start, &goal, &mut rng);
        // Without smoothing.
        let mut ctx2 = PlanContext::new(&robot, &env, 0.05);
        let mut rng2 = StdRng::seed_from_u64(43);
        let rough = GnnmpEmulator {
            smoothing_rounds: 0,
            ..Default::default()
        }
        .plan(&mut ctx2, &start, &goal, &mut rng2);
        if let (Some(a), Some(b)) = (&smooth.path, &rough.path) {
            assert!(path_length(a) <= path_length(b) + 1e-9);
        }
    }

    #[test]
    fn disconnected_world_fails() {
        let robot: Robot = presets::planar_2d().into();
        let env = Environment::new(
            robot.workspace(),
            vec![Aabb::new(
                Vec3::new(-0.05, -1.1, -0.1),
                Vec3::new(0.05, 1.1, 0.1),
            )],
        );
        let mut ctx = PlanContext::new(&robot, &env, 0.05);
        let mut rng = StdRng::seed_from_u64(44);
        let planner = GnnmpEmulator {
            n_samples: 60,
            ..Default::default()
        };
        let result = planner.plan(
            &mut ctx,
            &Config::new(vec![-0.6, 0.0]),
            &Config::new(vec![0.6, 0.0]),
            &mut rng,
        );
        assert!(!result.solved());
    }
}
