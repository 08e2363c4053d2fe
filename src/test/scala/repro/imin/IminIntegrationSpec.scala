package repro.imin

import repro.SparkSpec
import repro.exp.Datasets
import repro.graph.PropModels
import repro.sampling.DeltaEstimator
import repro.sampling.TriggeringModel.IndependentCascade
import repro.spread.MonteCarloSpread

/** End-to-end integration of the whole stack on generated dataset
  * substitutes — the same pipeline the Table VII bench runs, at reduced
  * scale, with cross-algorithm invariants.
  */
class IminIntegrationSpec extends SparkSpec {

  private val spec = Datasets.byName("EmailCore")
  private lazy val gTR = Datasets.withModel(spec.graph, "TR", spec.seed)
  private lazy val gWC = Datasets.withModel(spec.graph, "WC", spec.seed)
  private lazy val seeds = Datasets.randomSeeds(gTR, 5, 1L)
  private lazy val roots = seeds.toArray.sorted

  private def eval(g: repro.graph.ProbGraph, blockers: Seq[Int], evalSeed: Long): Double =
    MonteCarloSpread.spreadLocal(g, roots, 4000, evalSeed, Blocking.maskOf(g.n, blockers))

  test("GR beats Rand on a generated dataset (TR)") {
    val gr = GreedyReplace.run(spark, gTR, seeds, 10, 200, 2L)
    val ra = Heuristics.rand(gTR, seeds, 10, 2L)
    assert(eval(gTR, gr, 99L) < eval(gTR, ra, 99L))
  }

  test("GR beats OutDegree on a generated dataset (WC)") {
    val gr = GreedyReplace.run(spark, gWC, seeds, 10, 200, 3L)
    val od = Heuristics.outDegree(gWC, seeds, 10)
    assert(eval(gWC, gr, 98L) < eval(gWC, od, 98L))
  }

  test("AG and GR are close in quality on a generated dataset (WC)") {
    val ag = AdvancedGreedy.run(spark, gWC, seeds, 10, 200, 4L)
    val gr = GreedyReplace.run(spark, gWC, seeds, 10, 200, 4L)
    val sAg = eval(gWC, ag, 97L)
    val sGr = eval(gWC, gr, 97L)
    assert(sGr <= sAg * 1.10 + 0.3, s"GR $sGr vs AG $sAg")
  }

  test("AG spread decreases monotonically along its own insertion order") {
    val order = AdvancedGreedy.run(spark, gWC, seeds, 8, 200, 5L)
    val spreads = (0 to order.size).map(k => eval(gWC, order.take(k), 96L))
    for (Seq(a, b) <- spreads.sliding(2)) assert(b <= a + 1e-9) // common worlds => exact monotone
  }

  test("blocking all out-neighbors of all seeds reduces spread to |S|") {
    val allOut = seeds.flatMap(gWC.outNeighbors(_)).toSet -- seeds
    assert(eval(gWC, allOut.toSeq, 95L) == seeds.size.toDouble)
  }

  test("distributed AG equals local AG on a generated dataset") {
    val a = AdvancedGreedy.select(None, gTR, seeds, Seq(3), 100, 6L, IndependentCascade)
    val b = AdvancedGreedy.select(Some(spark), gTR, seeds, Seq(3), 100, 6L, IndependentCascade)
    assert(a == b)
    assert(a(3) == AdvancedGreedy.run(spark, gTR, seeds, 3, 100, 6L))
  }

  test("distributed GR equals local GR on a generated dataset") {
    val a = GreedyReplace.select(None, gWC, seeds, 3, 100, 7L, IndependentCascade, replace = true)
    val b = GreedyReplace.select(Some(spark), gWC, seeds, 3, 100, 7L, IndependentCascade, replace = true)
    assert(a == b)
    assert(a == GreedyReplace.run(spark, gWC, seeds, 3, 100, 7L))
  }

  test("Theorem 5 empirically: estimation error shrinks as theta grows") {
    // Compare theta=50 vs theta=5000 estimates of the top blocker's delta
    // against a theta=50000 reference, all from the seeds on gWC itself.
    def est(theta: Int, seed: Long) = DeltaEstimator.estimateLocal(gWC, roots, null, theta, seed, IndependentCascade)
    val ref = est(50000, 100L)
    val top = (0 until gWC.n).maxBy(ref)
    def err(theta: Int, seed: Long): Double = math.abs(est(theta, seed)(top) - ref(top))
    val coarse = (1 to 5).map(i => err(50, 200L + i)).sum / 5
    val fine = (1 to 5).map(i => err(5000, 300L + i)).sum / 5
    assert(fine < coarse, s"error theta=5000 ($fine) should be below theta=50 ($coarse)")
  }

  test("AG under the LT triggering model runs end-to-end (§V-E)") {
    val b = AdvancedGreedy.run(spark, gWC, seeds, 3, 100, 8L,
      model = repro.sampling.TriggeringModel.LinearThreshold)
    assert(b.nonEmpty && b.forall(v => !seeds.contains(v)))
  }

  test("a blocked graph's AG never re-selects already blocked vertices") {
    val first = AdvancedGreedy.run(spark, gTR, seeds, 5, 100, 9L)
    val masked = gTR.blockVertices(Blocking.maskOf(gTR.n, first))
    val second = AdvancedGreedy.run(spark, masked, seeds, 5, 100, 10L)
    assert(second.toSet.intersect(first.toSet).isEmpty)
  }
}
