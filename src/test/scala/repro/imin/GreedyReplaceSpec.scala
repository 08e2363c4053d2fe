package repro.imin

import repro.SparkSpec
import repro.graph.{ProbGraph, SeedReduction, ToyGraph}
import repro.sampling.TriggeringModel.IndependentCascade
import repro.spread.ExactSpread

class GreedyReplaceSpec extends SparkSpec {

  private val g = ToyGraph.graph
  private val seeds = Set(ToyGraph.seed)
  private def v(k: Int) = ToyGraph.v(k)
  private def exact(b: Seq[Int]) = ExactSpread.spreadWithBlockers(g, Array(ToyGraph.seed), b)

  test("b=1: replacement upgrades an out-neighbor to v5 (Table III / Example 4)") {
    val b = GreedyReplace.run(spark, g, seeds, 1, 5000, 1L)
    assert(b == Seq(v(5)))
    assert(math.abs(exact(b) - 3.0) < 1e-9)
  }

  test("b=2: keeps both out-neighbors, spread 1 (Table III / Example 4)") {
    val b = GreedyReplace.run(spark, g, seeds, 2, 5000, 2L)
    assert(b.toSet == Set(v(2), v(4)))
    assert(math.abs(exact(b) - 1.0) < 1e-9)
  }

  test("outNeighborsOnly b=1 blocks one of v2/v4 with spread 6.66 (Table III)") {
    val b = GreedyReplace.outNeighborsOnly(spark, g, seeds, 1, 5000, 3L)
    assert(b.size == 1 && (b.head == v(2) || b.head == v(4)))
    assert(math.abs(exact(b) - 6.66) < 1e-9)
  }

  test("outNeighborsOnly b=2 blocks v2 and v4 with spread 1 (Table III)") {
    val b = GreedyReplace.outNeighborsOnly(spark, g, seeds, 2, 5000, 4L)
    assert(b.toSet == Set(v(2), v(4)))
    assert(math.abs(exact(b) - 1.0) < 1e-9)
  }

  test("GR is never worse than OutNeighbors-only (paper's guarantee)") {
    for (b <- 1 to 3; seed <- Seq(5L, 6L)) {
      val gr = GreedyReplace.run(spark, g, seeds, b, 3000, seed)
      val on = GreedyReplace.outNeighborsOnly(spark, g, seeds, b, 3000, seed)
      assert(exact(gr) <= exact(on) + 0.05, s"b=$b seed=$seed gr=${exact(gr)} on=${exact(on)}")
    }
  }

  test("blocker count never exceeds min(outdeg of unified seed, b)") {
    val b5 = GreedyReplace.run(spark, g, seeds, 5, 1000, 7L)
    assert(b5.size <= 2) // the toy seed has only 2 out-neighbors
  }

  test("distributed run equals local run") {
    val a = GreedyReplace.select(None, g, seeds, 2, 1000, 8L, IndependentCascade, replace = true)
    val b = GreedyReplace.select(Some(spark), g, seeds, 2, 1000, 8L, IndependentCascade, replace = true)
    assert(a == b)
    assert(a == GreedyReplace.run(spark, g, seeds, 2, 1000, 8L))
  }

  test("blockers are distinct and never a seed") {
    val b = GreedyReplace.run(spark, g, seeds, 2, 1000, 9L)
    assert(b.distinct.size == b.size)
    assert(!b.contains(ToyGraph.seed))
  }

  test("early termination: replacement stops when the removed blocker is re-chosen") {
    // Star: seed -> {1,2,3}, no deeper structure; every out-neighbor is
    // optimal, so the first replacement must re-pick the removed vertex
    // and terminate (covered by result equality to the phase-1 set).
    val h = ProbGraph.fromEdges(4, Seq((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
    val gr = GreedyReplace.run(spark, h, Set(0), 2, 500, 10L)
    val on = GreedyReplace.outNeighborsOnly(spark, h, Set(0), 2, 500, 10L)
    assert(gr.toSet == on.toSet)
  }

  test("replacement escapes the out-neighbor set when a deeper bottleneck is better") {
    // seed -> 1, seed -> 2, both -> 3 -> {4,5,6,7}: blocking 3 beats any
    // single out-neighbor.
    val h = ProbGraph.fromEdges(
      8,
      Seq((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0),
        (3, 4, 1.0), (3, 5, 1.0), (3, 6, 1.0), (3, 7, 1.0)))
    val gr = GreedyReplace.run(spark, h, Set(0), 1, 500, 11L)
    assert(gr == Seq(3))
  }

  test("multi-seed GR works through the unified seed") {
    val h = ProbGraph.fromEdges(
      8,
      Seq((0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (3, 5, 1.0), (3, 6, 1.0), (3, 7, 1.0)))
    val gr = GreedyReplace.run(spark, h, Set(0, 1), 1, 500, 12L)
    // the only out-neighbor of the unified seed is 2; replacing it cannot
    // improve (2 cuts off 6 vertices, 3 only 5)
    assert(gr == Seq(2))
  }

  test("phase-1 candidates are the out-neighbors of the reduction's unified seed") {
    val rnd = new scala.util.Random(21)
    for (trial <- 1 to 200) {
      val n = 3 + rnd.nextInt(10)
      // p = 0 edges, seed -> seed edges and edges into seeds all occur.
      val edges = Seq.fill(2 * n)((rnd.nextInt(n), rnd.nextInt(n), Seq(0.0, 0.3, 1.0)(rnd.nextInt(3))))
        .filter(e => e._1 != e._2)
      val h = ProbGraph.fromEdges(n, edges)
      val seeds = Set.fill(1 + rnd.nextInt(3))(rnd.nextInt(n))
      val red = SeedReduction.reduce(h, seeds)
      assert(GreedyReplace.seedOutNeighbors(h, seeds) == red.graph.outNeighbors(red.superSeed).toSet,
        s"trial=$trial seeds=$seeds edges=${h.edgeTriples}")
    }
  }

  test("budget must be positive") {
    intercept[IllegalArgumentException](
      GreedyReplace.run(spark, g, seeds, 0, 100, 1L))
  }

  test("GR result quality on toy graph beats or ties plain greedy for both budgets (Table III)") {
    for (b <- Seq(1, 2)) {
      val ag = AdvancedGreedy.run(spark, g, seeds, b, 3000, 13L)
      val gr = GreedyReplace.run(spark, g, seeds, b, 3000, 13L)
      assert(exact(gr) <= exact(ag) + 1e-9, s"b=$b")
    }
  }
}
