package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.{Datasets, Extracts}
import scala.collection.mutable
import scala.util.Random

/** The boxed graph construction that the primitive builders replaced, kept
  * as the oracle they must reproduce bit for bit: tuple edge lists, a
  * `mutable.HashSet[Long]`, `Random.shuffle` over `Vector`s and `mapProbs`
  * closures.
  */
object BoxedGraphs {

  def fromEdges(n: Int, edges: Iterable[(Int, Int, Double)]): ProbGraph = {
    val m = edges.size
    val counts = new Array[Int](n + 1)
    edges.foreach { case (u, v, p) =>
      require(u >= 0 && u < n && v >= 0 && v < n, s"edge ($u,$v) out of range n=$n")
      require(p >= 0.0 && p <= 1.0, s"probability $p outside [0,1] on ($u,$v)")
      counts(u + 1) += 1
    }
    var i = 0
    while (i < n) { counts(i + 1) += counts(i); i += 1 }
    val offsets = counts.clone()
    val targets = new Array[Int](m)
    val probs = new Array[Double](m)
    val cursor = counts.clone()
    edges.foreach { case (u, v, p) =>
      val pos = cursor(u); cursor(u) += 1
      targets(pos) = v; probs(pos) = p
    }
    new ProbGraph(n, offsets, targets, probs)
  }

  private final class ZipfSampler(n: Int, perm: Array[Int]) {
    private val cum = new Array[Double](n)
    private var acc = 0.0
    for (i <- 0 until n) { acc += math.pow(i + 1.0, -1.0); cum(i) = acc }

    def draw(rnd: Random): Int = {
      val x = rnd.nextDouble() * acc
      var lo = 0; var hi = n - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cum(mid) < x) lo = mid + 1 else hi = mid
      }
      perm(lo)
    }
  }

  def powerLaw(n: Int, mEdges: Int, directed: Boolean, seed: Long): ProbGraph = {
    require(n >= 2, "need at least 2 vertices")
    val rnd = new Random(seed)
    val permSrc = rnd.shuffle((0 until n).toVector).toArray
    val permDst = rnd.shuffle((0 until n).toVector).toArray
    val srcSampler = new ZipfSampler(n, permSrc)
    val dstSampler = new ZipfSampler(n, permDst)

    val seen = mutable.HashSet.empty[Long]
    val edges = mutable.ArrayBuffer.empty[(Int, Int, Double)]
    var attempts = 0
    val maxAttempts = 50L * mEdges max 1000L
    def key(u: Int, v: Int): Long = u.toLong * n + v
    while (seen.size < mEdges && attempts < maxAttempts) {
      attempts += 1
      val u = srcSampler.draw(rnd)
      val v = dstSampler.draw(rnd)
      if (u != v) {
        val (a, b) = if (directed) (u, v) else (math.min(u, v), math.max(u, v))
        if (seen.add(key(a, b))) {
          edges += ((a, b, 1.0))
          if (!directed) edges += ((b, a, 1.0))
        }
      }
    }
    fromEdges(n, edges)
  }

  def trivalency(g: ProbGraph, seed: Long): ProbGraph = {
    val choices = Array(0.1, 0.01, 0.001)
    g.mapProbs { (e, _, _) =>
      val u = repro.util.Rng.edgeUniform(repro.util.Rng.splitmix64(seed), e)
      choices((u * 3).toInt.min(2))
    }
  }

  def weightedCascade(g: ProbGraph): ProbGraph = {
    val din = g.inDegrees
    g.mapProbs((_, _, v) => 1.0 / din(v))
  }

  def withModel(g: ProbGraph, model: String, seed: Long): ProbGraph =
    if (model == "TR") trivalency(g, seed) else weightedCascade(g)

  def randomSeeds(g: ProbGraph, count: Int, seed: Long): Set[Int] = {
    val rnd = new Random(seed)
    val pool = (0 until g.n).filter(g.outDegree(_) > 0)
    require(pool.size >= count, s"not enough non-sink vertices for $count seeds")
    rnd.shuffle(pool).take(count).toSet
  }

  def neighborhoodExtract(g: ProbGraph, targetN: Int, seed: Long): (ProbGraph, Map[Int, Int]) = {
    val rnd = new Random(seed)
    val chosen = mutable.LinkedHashSet.empty[Int]
    val queue = mutable.ArrayBuffer.empty[Int]

    def absorb(v: Int): Unit = if (chosen.add(v)) queue += v

    absorb(rnd.nextInt(g.n))
    while (chosen.size < targetN) {
      val pivot =
        if (queue.nonEmpty) queue.remove(rnd.nextInt(queue.size))
        else { val v = rnd.nextInt(g.n); absorb(v); v }
      g.outNeighbors(pivot).foreach(absorb)
      for (u <- 0 until g.n; v <- g.outNeighbors(u) if v == pivot) absorb(u)
    }
    val ids = chosen.toIndexedSeq
    val map = ids.zipWithIndex.toMap
    val edges = g.edgeTriples.collect {
      case (u, v, p) if map.contains(u) && map.contains(v) => (map(u), map(v), p)
    }
    (fromEdges(ids.size, edges), map)
  }
}

class GraphOracleSpec extends AnyFunSuite {

  private def assertSame(got: ProbGraph, want: ProbGraph, what: String): Unit = {
    assert(got.n == want.n, what)
    assert(java.util.Arrays.equals(got.offsets, want.offsets), s"$what: offsets")
    assert(java.util.Arrays.equals(got.targets, want.targets), s"$what: targets")
    assert(java.util.Arrays.equals(got.probs, want.probs), s"$what: probs")
  }

  /** The generated graph, both models and the seed set equal the oracle's. */
  private def assertGraphs(n: Int, pairs: Int, directed: Boolean, seed: Long, nSeeds: Int, seedSeed: Long): Unit = {
    val what = s"powerLaw($n, $pairs, directed = $directed, $seed)"
    val g = SocialGraphGen.powerLaw(n, pairs, directed, seed)
    assertSame(g, BoxedGraphs.powerLaw(n, pairs, directed, seed), what)
    for (model <- Seq("TR", "WC")) {
      val h = Datasets.withModel(g, model, seed)
      assertSame(h, BoxedGraphs.withModel(g, model, seed), s"$what under $model")
      if (nSeeds > 0)
        assert(Datasets.randomSeeds(h, nSeeds, seedSeed) == BoxedGraphs.randomSeeds(h, nSeeds, seedSeed),
          s"$what under $model: seeds")
    }
  }

  test("every dataset substitute, its TR/WC models and its Table VII seeds equal the boxed oracle's") {
    for (spec <- Datasets.all)
      assertGraphs(spec.scaledN, spec.scaledPairs, spec.directed, spec.seed, 10, 77L + spec.seed)
  }

  test("the benchmark's graph shapes equal the boxed oracle's") {
    // Each workload graph and its BG-instance graph (seed graphSeed + n).
    for ((n, pairs, directed, seed) <- Seq(
      (1400, 8000, true, 13L), (100000, 150000, false, 21L), (2000, 3000, false, 2021L),
      (5000, 75000, false, 22L), (300, 4500, false, 322L)))
      assertGraphs(n, pairs, directed, seed, 10, 77L + seed)
  }

  test("graphs at n = 2 and a request that stops at maxAttempts equal the boxed oracle's") {
    for (directed <- Seq(true, false); seed <- 1L to 5L) {
      assertGraphs(2, 1, directed, seed, 1, seed)
      assertGraphs(2, 3, directed, seed, 0, seed)
      // n = 3 has at most 6 directed (3 undirected) pairs: 10 are never reached.
      assertGraphs(3, 10, directed, seed, 1, seed)
      assert(SocialGraphGen.powerLaw(3, 10, directed, seed).m <= 6)
    }
  }

  test("the Tables V/VI extracts and their seeds equal the boxed oracle's") {
    val spec = Datasets.byName("EmailCore")
    for (model <- Seq("TR", "WC"); i <- 1 to 3) {
      val base = Datasets.withModel(spec.graph, model, spec.seed)
      val (sub, map) = Extracts.neighborhoodExtract(base, 30, 42L + i)
      val (want, wantMap) = BoxedGraphs.neighborhoodExtract(base, 30, 42L + i)
      assert(map == wantMap, s"$model extract $i: id map")
      assertSame(sub, want, s"$model extract $i")
      assert(Datasets.randomSeeds(sub, 5, 142L + i) == BoxedGraphs.randomSeeds(want, 5, 142L + i))
    }
  }

  test("the guided Zipf search returns the full binary search's index") {
    def fullSearch(cum: Array[Double], x: Double): Int = {
      var lo = 0; var hi = cum.length - 1
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (cum(mid) < x) lo = mid + 1 else hi = mid
      }
      lo
    }
    val rnd = new Random(5)
    for (n <- Seq(2, 3, 10, 1000, 100000)) {
      val z = new SocialGraphGen.ZipfSampler(n, Array.range(0, n))
      val acc = z.cum.last
      // Every cumulative weight and bucket bound, their neighbours, and draws.
      val bounds = (0 to n).map(k => k / (n / acc))
      val xs = (z.cum ++ bounds).flatMap(c => Seq(c, math.nextUp(c), math.nextDown(c))) ++
        Seq.fill(100000)(rnd.nextDouble() * acc)
      for (x <- xs) assert(z.index(x) == fullSearch(z.cum, x), s"n = $n, x = $x")
    }
  }
}
