package repro.imin

import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.exp.Datasets
import repro.graph.{ProbGraph, ToyGraph}
import repro.sampling.ReachOracle
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

  /** A random graph over `n` vertices whose probabilities are 0, 1 or in
    * between, with an edge from one seed to another and one into a seed.
    */
  private def randomMultiSeed(rnd: scala.util.Random): (ProbGraph, Set[Int]) = {
    val n = 4 + rnd.nextInt(12)
    val seeds = Set.fill(2 + rnd.nextInt(2))(rnd.nextInt(n))
    def p() = rnd.nextInt(3) match { case 0 => 0.0; case 1 => 1.0; case _ => rnd.nextDouble() }
    val (s0, s1) = (seeds.min, seeds.max)
    val intoSeed = ((s1 + 1) % n, s0, p())
    val edges = Seq.fill(rnd.nextInt(3 * n))((rnd.nextInt(n), rnd.nextInt(n), p())) ++
      Seq((s0, s1, p()), intoSeed)
    (ProbGraph.fromEdges(n, edges.filter(e => e._1 != e._2)), seeds)
  }

  test("BG equals AG with theta = r on the same worlds (paper §V-C)") {
    val rnd = new scala.util.Random(61)
    var chosen = 0
    for (trial <- 1 to 150) {
      val (h, hSeeds) = randomMultiSeed(rnd)
      val (b, r, masterSeed) = (1 + rnd.nextInt(4), 1 + rnd.nextInt(60), rnd.nextLong())
      val bg = BaselineGreedy.run(spark, h, hSeeds, b, r, masterSeed)
      val ag = AdvancedGreedy.run(spark, h, hSeeds, b, r, masterSeed)
      assert(bg == ag, s"trial $trial: seeds=$hSeeds b=$b r=$r edges=${h.edgeTriples}")
      chosen += bg.size
    }
    assert(chosen >= 150, s"only $chosen blockers chosen over 150 graphs")
    val spec = Datasets.byName("Wiki-Vote")
    for (model <- Seq("TR", "WC")) {
      val h = Datasets.withModel(spec.graph, model, spec.seed)
      val hSeeds = Datasets.randomSeeds(h, 10, 90L)
      val bg = BaselineGreedy.run(spark, h, hSeeds, 3, 100, 81L)
      assert(bg.size == 3 && bg == AdvancedGreedy.run(spark, h, hSeeds, 3, 100, 81L), s"$model: BG $bg")
    }
  }

  test("distributed BG equals local BG (same worlds)") {
    // The sweep of every round of a run, from no blocker to all of them, on
    // the toy graph and on a multi-seed graph.
    val (h, hSeeds) = randomMultiSeed(new scala.util.Random(62))
    for ((graph, graphSeeds) <- Seq((g, seeds), (h, hSeeds))) {
      val roots = Blocking.rootsOf(graph, graphSeeds)
      val order = BaselineGreedy.run(spark, graph, graphSeeds, 2, 1000, 6L)
      for (i <- 0 to order.size) {
        val blocked = Blocking.maskOf(graph.n, order.take(i))
        val candidates = (0 until graph.n).filter(v => !graphSeeds(v) && !blocked(v)).toArray
        // A round's job slices its r worlds: r below the slice count leaves
        // some slices empty.
        for (r <- Seq(1000, 1, spark.sparkContext.defaultParallelism - 1).filter(_ >= 1).distinct) {
          def sweep(cluster: Option[SparkSession]) =
            MonteCarloSpread.sums(cluster, graph, roots, blocked, candidates, 1, r, 6L + i)
          val ((localBase, local), (distBase, dist)) = (sweep(None), sweep(Some(spark)))
          assert(local.length == candidates.length && local.sameElements(dist), s"round ${i + 1}, r = $r")
          assert(localBase == distBase, s"round ${i + 1} base, r = $r")
        }
      }
    }
  }

  test("BG's blocker order on the Wiki-Vote substitute equals the per-candidate definition") {
    val spec = Datasets.byName("Wiki-Vote")
    val h = Datasets.withModel(spec.graph, "TR", spec.seed)
    val hSeeds = Datasets.randomSeeds(h, 10, 90L)
    val (b, r, masterSeed) = (3, 100, 81L)
    // Reference: Algorithm 1 with one mask copy and one r-world MCS per
    // candidate, each drawing its own coins, on the tests' own reach.
    val roots = Blocking.rootsOf(h, hSeeds)
    val support = Blocking.support(h, roots)
    val blocked = new Array[Boolean](h.n)
    val want = scala.collection.mutable.ArrayBuffer.empty[Int]
    var i = 0
    var exhausted = false
    while (i < b && !exhausted) {
      val roundSeed = Rng.splitmix64(masterSeed ^ (i + 1).toLong)
      def spreadSum(extra: Int) = {
        val mask = blocked.clone()
        if (extra >= 0) mask(extra) = true
        ReachOracle.sum(h, roots, mask, roundSeed, r)
      }
      val candidates = (0 until h.n).filter(v => support(v) && !blocked(v) && !hSeeds(v))
      if (candidates.isEmpty) exhausted = true
      else {
        val sums = candidates.map(u => u -> spreadSum(u)).toMap
        // BG's own round base and sweep, and MCS, count the same sums.
        val base = spreadSum(-1)
        assert(MonteCarloSpread.spreadLocal(h, roots, r, roundSeed, blocked) == base.toDouble / r, s"round ${i + 1} MCS")
        val (bgBase, bgSums) = MonteCarloSpread.sums(None, h, roots, blocked, candidates.toArray, 1, r, roundSeed)
        assert(bgBase == base, s"round ${i + 1} sweep base")
        assert(bgSums.toSeq == candidates.map(sums), s"round ${i + 1} sweep")
        val x = candidates.minBy(u => (sums(u), u))
        if (base - sums(x) <= 0L) exhausted = true
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
