package repro.imin

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{ProbGraph, ToyGraph}
import scala.util.Random

class HeuristicsSpec extends AnyFunSuite {

  private val g = ToyGraph.graph
  private val seeds = Set(ToyGraph.seed)

  test("rand is deterministic in the seed") {
    val a = Heuristics.rand(g, seeds, 3, 1L)
    val b = Heuristics.rand(g, seeds, 3, 1L)
    assert(a == b)
  }

  test("rand never picks a seed") {
    for (s <- 1L to 20L)
      assert(!Heuristics.rand(g, seeds, 8, s).contains(ToyGraph.seed))
  }

  test("rand picks b distinct vertices") {
    val b = Heuristics.rand(g, seeds, 5, 2L)
    assert(b.size == 5 && b.distinct.size == 5)
  }

  test("rand with b larger than the pool returns the whole pool") {
    assert(Heuristics.rand(g, seeds, 100, 3L).toSet == (0 until g.n).toSet - ToyGraph.seed)
  }

  test("outDegree picks the highest out-degree vertices") {
    // toy out-degrees: v1=2 (seed), v5=4, v2=v4=v9=v8=1, v3=v6=v7=0
    val od = Heuristics.outDegree(g, seeds, 1)
    assert(od == Seq(ToyGraph.v(5)))
  }

  test("outDegree breaks ties by smallest id") {
    val od = Heuristics.outDegree(g, seeds, 3)
    assert(od.head == ToyGraph.v(5))
    // next come the degree-1 vertices in id order: v2 (1), v4 (3)
    assert(od.drop(1) == Seq(ToyGraph.v(2), ToyGraph.v(4)))
  }

  test("outDegree never picks a seed even if it has max degree") {
    val h = ProbGraph.fromEdges(4, Seq((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0)))
    assert(Heuristics.outDegree(h, Set(0), 2) == Seq(1, 2))
  }

  test("rand and outDegree reject an empty or out-of-range seed set") {
    for (bad <- Seq(Set.empty[Int], Set(ToyGraph.seed, g.n))) {
      intercept[IllegalArgumentException](Heuristics.rand(g, bad, 2, 1L))
      intercept[IllegalArgumentException](Heuristics.outDegree(g, bad, 2))
    }
  }

  test("rand and outDegree equal their boxed definitions on random graphs") {
    // Reference definitions over boxed collections.
    def randRef(g: ProbGraph, seeds: Set[Int], b: Int, seed: Long): Seq[Int] =
      new Random(seed).shuffle((0 until g.n).filterNot(seeds.contains)).take(b)
    def outDegreeRef(g: ProbGraph, seeds: Set[Int], b: Int): Seq[Int] =
      (0 until g.n).filterNot(seeds.contains).sortBy(v => (-g.outDegree(v), v)).take(b)
    val rnd = new Random(23)
    for (k <- 0 until 100) {
      val n = 1 + rnd.nextInt(60)
      val edges = Seq.fill(rnd.nextInt(3 * n))((rnd.nextInt(n), rnd.nextInt(n), 1.0)).filter(e => e._1 != e._2)
      val h = ProbGraph.fromEdges(n, edges)
      // Sometimes every vertex is a seed, leaving an empty pool.
      val hSeeds = if (k % 25 == 0) (0 until n).toSet else Set.fill(1 + rnd.nextInt(4))(rnd.nextInt(n))
      val pool = n - hSeeds.size
      for (b <- Seq(0, 1, 1 + rnd.nextInt(n), pool + 1 + rnd.nextInt(5))) {
        val seed = rnd.nextLong()
        assert(Heuristics.rand(h, hSeeds, b, seed) == randRef(h, hSeeds, b, seed), s"graph $k, b = $b")
        assert(Heuristics.outDegree(h, hSeeds, b) == outDegreeRef(h, hSeeds, b), s"graph $k, b = $b")
      }
    }
  }
}
