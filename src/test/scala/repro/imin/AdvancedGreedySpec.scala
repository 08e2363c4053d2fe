package repro.imin

import repro.SparkSpec
import repro.graph.{ProbGraph, ToyGraph}
import repro.sampling.TriggeringModel.IndependentCascade
import repro.spread.ExactSpread

class AdvancedGreedySpec extends SparkSpec {

  private val g = ToyGraph.graph
  private val seeds = Set(ToyGraph.seed)
  private def v(k: Int) = ToyGraph.v(k)

  test("b=1 blocks v5 (Table III, Greedy row)") {
    val b = AdvancedGreedy.run(spark, g, seeds, 1, theta = 5000, masterSeed = 1L)
    assert(b == Seq(v(5)))
  }

  test("b=1 spread is 3 (Table III)") {
    val b = AdvancedGreedy.run(spark, g, seeds, 1, 5000, 1L)
    assert(math.abs(ExactSpread.spreadWithBlockers(g, Array(ToyGraph.seed), b) - 3.0) < 1e-9)
  }

  test("b=2 blocks v5 then v2 or v4, spread 2 (Table III)") {
    val b = AdvancedGreedy.run(spark, g, seeds, 2, 5000, 2L)
    assert(b.head == v(5))
    assert(b(1) == v(2) || b(1) == v(4))
    assert(math.abs(ExactSpread.spreadWithBlockers(g, Array(ToyGraph.seed), b) - 2.0) < 1e-9)
  }

  test("distributed run gives the same blockers as local (same worlds)") {
    val a = AdvancedGreedy.select(None, g, seeds, Seq(2), 1000, 3L, IndependentCascade)
    val b = AdvancedGreedy.select(Some(spark), g, seeds, Seq(2), 1000, 3L, IndependentCascade)
    assert(a == b)
    assert(a(2) == AdvancedGreedy.run(spark, g, seeds, 2, 1000, 3L))
  }

  test("runWithCheckpoints returns greedy prefixes") {
    val byBudget = AdvancedGreedy.runWithCheckpoints(
      spark, g, seeds, Seq(1, 2, 3), 2000, 4L)
    assert(byBudget(1) == byBudget(3).take(1))
    assert(byBudget(2) == byBudget(3).take(2))
  }

  test("selection stops when nothing more can be gained") {
    // Chain 0 -> 1 -> 2: blocking 1 removes everything downstream; a second
    // blocker has zero effect and is not taken.
    val h = ProbGraph.fromEdges(3, Seq((0, 1, 1.0), (1, 2, 1.0)))
    val b = AdvancedGreedy.run(spark, h, Set(0), 3, 500, 5L)
    assert(b == Seq(1))
  }

  test("never blocks a seed") {
    val b = AdvancedGreedy.run(spark, g, seeds, 8, 500, 6L)
    assert(!b.contains(ToyGraph.seed))
  }

  test("blockers are distinct") {
    val b = AdvancedGreedy.run(spark, g, seeds, 5, 500, 7L)
    assert(b.distinct.size == b.size)
  }

  test("multi-seed: AG blocks the shared bottleneck first") {
    // seeds 0 and 1 both funnel through 3 to a large tail
    val h = ProbGraph.fromEdges(
      8,
      Seq((0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (3, 5, 1.0), (3, 6, 1.0), (3, 7, 1.0)))
    val b = AdvancedGreedy.run(spark, h, Set(0, 1), 1, 500, 8L)
    assert(b == Seq(2)) // blocking 2 removes 6 vertices of spread; 3 only 5
  }

  test("greedy choice matches the maximal exact spread decrease each round") {
    val blockers = AdvancedGreedy.run(spark, g, seeds, 3, 20000, 9L)
    var blocked = List.empty[Int]
    for (x <- blockers) {
      val base = ExactSpread.spreadWithBlockers(g, Array(ToyGraph.seed), blocked)
      val decreases = (0 until g.n)
        .filterNot(u => u == ToyGraph.seed || blocked.contains(u))
        .map(u => base - ExactSpread.spreadWithBlockers(g, Array(ToyGraph.seed), u :: blocked))
      val got = base - ExactSpread.spreadWithBlockers(g, Array(ToyGraph.seed), x :: blocked)
      assert(math.abs(got - decreases.max) < 0.05, s"round with blocked=$blocked picked $x")
      blocked ::= x
    }
  }

  test("budgets must be positive") {
    intercept[IllegalArgumentException](
      AdvancedGreedy.runWithCheckpoints(spark, g, seeds, Seq(0), 100, 1L))
  }
}
