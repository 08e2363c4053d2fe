package repro.sampling

import repro.SparkSpec
import repro.domtree.DominatorTree
import repro.graph.{ProbGraph, ToyGraph}
import repro.spread.ExactSpread
import repro.util.Rng

class DeltaEstimatorSpec extends SparkSpec {

  private val g = ToyGraph.graph
  private def v(k: Int) = ToyGraph.v(k)

  test("Example 2: estimated deltas converge to the paper's exact values") {
    val delta = DeltaEstimator.estimateLocal(g, ToyGraph.seed, theta = 60000, masterSeed = 1L)
    val expected = Map(
      v(2) -> 1.0, v(3) -> 1.0, v(4) -> 1.0, v(5) -> 4.66, v(6) -> 1.0,
      v(7) -> 0.06, v(8) -> 0.66, v(9) -> 1.11)
    for ((vert, exp) <- expected)
      assert(math.abs(delta(vert) - exp) < 0.03, s"vertex v${vert + 1}: got ${delta(vert)}, want $exp")
  }

  test("Theorem 4: delta equals spread(G) - spread(G minus u), exactly, per vertex") {
    // Verify on a big sample against the exact spread difference.
    val delta = DeltaEstimator.estimateLocal(g, ToyGraph.seed, theta = 60000, masterSeed = 2L)
    val base = ExactSpread.spread(g, Array(ToyGraph.seed))
    for (u <- 0 until g.n if u != ToyGraph.seed) {
      val exact = base - ExactSpread.spreadWithBlockers(g, Array(ToyGraph.seed), Seq(u))
      assert(math.abs(delta(u) - exact) < 0.03, s"u=v${u + 1}: est=${delta(u)} exact=$exact")
    }
  }

  test("Theorem 6 per sample: accumulated subtree size equals direct sigma->u") {
    val rnd = new scala.util.Random(5)
    for (trial <- 1 to 20) {
      val n = 4 + rnd.nextInt(10)
      val edges = Seq.fill(3 * n)((rnd.nextInt(n), rnd.nextInt(n), 0.3 + 0.7 * rnd.nextDouble()))
        .filter(e => e._1 != e._2).take(ExactSpread.MaxUncertain)
      val h = ProbGraph.fromEdges(n, edges)
      val sampleSeed = Rng.sampleSeed(100L + trial, 0L)
      val acc = new Array[Double](n)
      DeltaEstimator.accumulateSample(h, Array(0), null, sampleSeed, acc, new DominatorTree.Workspace(n),
        TriggeringModel.IndependentCascade)
      val full = GraphSampler.reachSet(h, Array(0), sampleSeed)
      for (u <- 1 until n) {
        val blocked = new Array[Boolean](n); blocked(u) = true
        val without = GraphSampler.reachSet(h, Array(0), sampleSeed, blocked)
        val sigma = full.size - without.size
        assert(acc(u) == sigma.toDouble, s"trial=$trial u=$u")
      }
    }
  }

  test("deltas of unreachable vertices are zero") {
    val h = ProbGraph.fromEdges(4, Seq((0, 1, 1.0), (2, 3, 1.0)))
    val delta = DeltaEstimator.estimateLocal(h, 0, theta = 100, masterSeed = 3L)
    assert(delta(2) == 0.0 && delta(3) == 0.0)
  }

  test("the root accumulates no delta (it is not a candidate)") {
    val delta = DeltaEstimator.estimateLocal(g, ToyGraph.seed, theta = 100, masterSeed = 4L)
    assert(delta(ToyGraph.seed) == 0.0)
  }

  test("estimateLocal is deterministic in the master seed") {
    val a = DeltaEstimator.estimateLocal(g, ToyGraph.seed, 500, 42L)
    val b = DeltaEstimator.estimateLocal(g, ToyGraph.seed, 500, 42L)
    assert(a.toSeq == b.toSeq)
  }

  test("distributed estimate equals the local estimate exactly (same worlds)") {
    val local = DeltaEstimator.estimateLocal(g, ToyGraph.seed, 2000, 7L)
    val dist = DeltaEstimator.estimate(spark, g, ToyGraph.seed, 2000, 7L)
    for (u <- 0 until g.n)
      assert(math.abs(local(u) - dist(u)) < 1e-9, s"u=$u local=${local(u)} dist=${dist(u)}")
  }

  test("multi-seed estimate matches exact spread decreases") {
    // Seeds 0 and 1 share the out-neighbor 2; no seed reduction is built.
    val h = ProbGraph.fromEdges(
      6,
      Seq((0, 2, 0.5), (1, 2, 0.5), (0, 3, 1.0), (1, 4, 0.4), (2, 5, 0.8), (3, 5, 0.3), (1, 0, 0.7)))
    val seeds = Array(0, 1)
    for (blockers <- Seq(Seq.empty[Int], Seq(3))) {
      val mask = new Array[Boolean](h.n)
      blockers.foreach(mask(_) = true)
      val delta = DeltaEstimator.estimateLocal(h, seeds, mask, 60000, 11L, TriggeringModel.IndependentCascade)
      val base = ExactSpread.spreadWithBlockers(h, seeds, blockers)
      for (u <- 2 until 6 if !blockers.contains(u)) {
        val exact = base - ExactSpread.spreadWithBlockers(h, seeds, u +: blockers)
        assert(math.abs(delta(u) - exact) < 0.03, s"u=$u blockers=$blockers")
      }
      assert(seeds.forall(delta(_) == 0.0) && blockers.forall(delta(_) == 0.0))
    }
  }

  test("theta=1 uses exactly one sampled world") {
    val delta = DeltaEstimator.estimateLocal(g, ToyGraph.seed, 1, 13L)
    // With one world every delta is an integer subtree size.
    assert(delta.forall(d => d == math.rint(d)))
  }

  test("theta must be positive") {
    intercept[IllegalArgumentException](DeltaEstimator.estimateLocal(g, ToyGraph.seed, 0, 1L))
    intercept[IllegalArgumentException](DeltaEstimator.estimate(spark, g, ToyGraph.seed, 0, 1L))
  }
}
