package repro.imin

import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.exp.Datasets
import repro.graph.{ProbGraph, ToyGraph}
import repro.spread.{ExactSpread, MonteCarloSpread}
import repro.util.Rng

class BaselineGreedySpec extends SparkSpec {

  private val g = ToyGraph.graph
  private val seeds = Set(ToyGraph.seed)
  private def v(k: Int) = ToyGraph.v(k)

  test("BG blocks v5 at b=1") {
    val b = BaselineGreedy.run(spark, g, seeds, 1, r = 3000, masterSeed = 1L)
    assert(b == Seq(v(5)))
  }

  test("BG at b=2 matches the Greedy row of Table III") {
    val b = BaselineGreedy.run(spark, g, seeds, 2, 3000, 2L)
    assert(b.head == v(5))
    assert(b(1) == v(2) || b(1) == v(4))
    assert(math.abs(ExactSpread.spreadWithBlockers(g, Array(ToyGraph.seed), b) - 2.0) < 1e-9)
  }

  test("BG and AG choose blocker sets of equal effectiveness (paper §V-C)") {
    for (seed <- Seq(3L, 4L)) {
      val bg = BaselineGreedy.run(spark, g, seeds, 2, 3000, seed)
      val ag = AdvancedGreedy.run(spark, g, seeds, 2, 3000, seed)
      val sBg = ExactSpread.spreadWithBlockers(g, Array(ToyGraph.seed), bg)
      val sAg = ExactSpread.spreadWithBlockers(g, Array(ToyGraph.seed), ag)
      assert(math.abs(sBg - sAg) < 0.05, s"seed=$seed bg=$bg ag=$ag")
    }
  }

  test("BG equals AG effectiveness on a random uncertain graph") {
    val rnd = new scala.util.Random(55)
    val n = 12
    val edges = Seq.fill(22)((rnd.nextInt(n), rnd.nextInt(n), 0.4 + 0.6 * rnd.nextDouble()))
      .filter(e => e._1 != e._2).distinct.take(ExactSpread.MaxUncertain)
    val h = ProbGraph.fromEdges(n, edges)
    val hSeeds = Set(0)
    val bg = BaselineGreedy.run(spark, h, hSeeds, 2, 4000, 5L)
    val ag = AdvancedGreedy.run(spark, h, hSeeds, 2, 4000, 5L)
    val sBg = ExactSpread.spreadWithBlockers(h, Array(0), bg)
    val sAg = ExactSpread.spreadWithBlockers(h, Array(0), ag)
    assert(math.abs(sBg - sAg) < 0.1, s"bg=$bg ($sBg) ag=$ag ($sAg)")
  }

  test("distributed BG equals local BG (same worlds)") {
    // The sweep of every round of a run, from no blocker to all of them.
    val order = BaselineGreedy.run(spark, g, seeds, 2, 1000, 6L)
    val (red, notSeed) = Blocking.reduced(g, seeds)
    for (i <- 0 to order.size) {
      val blocked = Blocking.maskOf(red.graph.n, order.take(i))
      val candidates = (0 until red.graph.n).filter(v => notSeed(v) && !blocked(v)).toArray
      // One candidate leaves all but one of the job's slices empty.
      for (cs <- Seq(candidates, candidates.take(1))) {
        def sweep(cluster: Option[SparkSession]) =
          BaselineGreedy.sweep(cluster, red.graph, red.superSeed, blocked, cs, 1000, 6L + i)
        val (local, dist) = (sweep(None), sweep(Some(spark)))
        assert(local.length == cs.length && local.sameElements(dist), s"round ${i + 1}, ${cs.length} candidates")
      }
    }
  }

  test("BG's blocker order on the Wiki-Vote substitute equals the per-candidate definition") {
    val spec = Datasets.byName("Wiki-Vote")
    val h = Datasets.withModel(spec.graph, "TR", spec.seed)
    val hSeeds = Datasets.randomSeeds(h, 10, 90L)
    val (b, r, masterSeed) = (3, 100, 81L)
    // Reference: Algorithm 1 with one mask copy and one r-world MCS per
    // candidate, each drawing its own coins.
    val (red, notSeed) = Blocking.reduced(h, hSeeds)
    val root = Array(red.superSeed)
    val support = Blocking.support(red.graph, root)
    val blocked = new Array[Boolean](red.graph.n)
    val want = scala.collection.mutable.ArrayBuffer.empty[Int]
    var i = 0
    var exhausted = false
    while (i < b && !exhausted) {
      val roundSeed = Rng.splitmix64(masterSeed ^ (i + 1).toLong)
      def spreadSum(extra: Int) = {
        val mask = blocked.clone()
        if (extra >= 0) mask(extra) = true
        MonteCarloSpread.reachSum(red.graph, root, mask, roundSeed, 0L, r)
      }
      val candidates = (0 until red.graph.n).filter(v => support(v) && !blocked(v) && notSeed(v))
      if (candidates.isEmpty) exhausted = true
      else {
        val sums = candidates.map(u => u -> spreadSum(u)).toMap
        val x = candidates.minBy(u => (sums(u), u))
        if (spreadSum(-1) - sums(x) <= 0L) exhausted = true
        else { blocked(x) = true; want += x }
      }
      i += 1
    }
    assert(want.size == b)
    assert(BaselineGreedy.run(spark, h, hSeeds, b, r, masterSeed) == want.toSeq)
  }

  test("BG stops when no candidate decreases the spread") {
    val h = ProbGraph.fromEdges(3, Seq((0, 1, 1.0), (1, 2, 1.0)))
    val b = BaselineGreedy.run(spark, h, Set(0), 3, 200, 7L)
    assert(b == Seq(1))
  }

  test("BG never blocks a seed and keeps blockers distinct") {
    val b = BaselineGreedy.run(spark, g, seeds, 4, 500, 8L)
    assert(!b.contains(ToyGraph.seed))
    assert(b.distinct.size == b.size)
  }

  test("parameters must be positive") {
    intercept[IllegalArgumentException](BaselineGreedy.run(spark, g, seeds, 0, 10, 1L))
    intercept[IllegalArgumentException](BaselineGreedy.run(spark, g, seeds, 1, 0, 1L))
  }
}
