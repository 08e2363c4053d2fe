package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.graph.{ProbGraph, ToyGraph}
import repro.imin._
import repro.spread.{ExactSpread, MonteCarloSpread}
import repro.util.Rng

/** Runners for every table of the paper's evaluation section, shared by the
  * `bench/` suites (which assert the shape claims and print paper-vs-ours)
  * and the `jobs/` spark-submit entrypoints.
  */
object Tables {

  // ------------------------------------------------------------------
  // Table III — toy-graph blockers and their exact expected spreads
  // ------------------------------------------------------------------

  final case class T3Row(algorithm: String, b: Int, blockers: Seq[String], spread: Double)

  /** Greedy / OutNeighbors / GreedyReplace on the Figure-1 toy graph at
    * b = 1, 2; spreads are computed *exactly* (3 uncertain edges).
    */
  def tableIII(spark: SparkSession, theta: Int = 20000): Seq[T3Row] = {
    val g = ToyGraph.graph
    val seeds = Set(ToyGraph.seed)
    def name(v: Int) = s"v${v + 1}"
    def exact(blockers: Seq[Int]): Double = ExactSpread.spreadWithBlockers(g, Array(ToyGraph.seed), blockers)
    (for (b <- Seq(1, 2)) yield {
      val greedy = AdvancedGreedy.run(spark, g, seeds, b, theta, 7L)
      val outN = GreedyReplace.outNeighborsOnly(spark, g, seeds, b, theta, 7L)
      val gr = GreedyReplace.run(spark, g, seeds, b, theta, 7L)
      Seq(
        T3Row("Greedy", b, greedy.map(name), exact(greedy)),
        T3Row("OutNeighbors", b, outN.map(name), exact(outN)),
        T3Row("GreedyReplace", b, gr.map(name), exact(gr)))
    }).flatten
  }

  // ------------------------------------------------------------------
  // Table IV — dataset statistics (computed as Spark SQL dataflow)
  // ------------------------------------------------------------------

  final case class T4Row(name: String, n: Int, m: Long, dAvg: Double, dMax: Long, directed: Boolean)

  /** Statistics of the scaled synthetic substitutes, via DataFrame degree
    * aggregation. Uses SNAP's accounting: undirected edges counted once,
    * undirected degree = neighbor count.
    */
  def tableIV(spark: SparkSession, specs: Seq[DatasetSpec] = Datasets.all): Seq[T4Row] =
    specs.map { spec =>
      val g = spec.graph
      val edges = g.toDF(spark)
      val out = edges.groupBy(col("src").as("v")).agg(count(lit(1)).as("outdeg"))
      val in = edges.groupBy(col("dst").as("v")).agg(count(lit(1)).as("indeg"))
      val deg = out
        .join(in, Seq("v"), "full_outer")
        .select(
          coalesce(col("outdeg"), lit(0L)).as("outdeg"),
          coalesce(col("indeg"), lit(0L)).as("indeg"))
      val (dAvg, dMax) =
        if (spec.directed) {
          val r = deg.agg(avg(col("outdeg") + col("indeg")), max(col("outdeg") + col("indeg"))).head()
          // isolated vertices have no row; fold them into the average
          (r.getDouble(0) * deg.count() / g.n, r.getLong(1))
        } else {
          val r = deg.agg(avg(col("outdeg")), max(col("outdeg"))).head()
          (r.getDouble(0) * deg.count() / g.n, r.getLong(1))
        }
      T4Row(spec.name, g.n, spec.rawEdgeCount(g).toLong, dAvg, dMax, spec.directed)
    }

  // ------------------------------------------------------------------
  // Tables V / VI — Exact vs GreedyReplace on small extracts
  // ------------------------------------------------------------------

  final case class ExactRow(
      b: Int,
      exactSpread: Double,
      grSpread: Double,
      ratio: Double, // exact / gr (≤ 1; the paper reports it as a percentage)
      exactSecs: Double,
      grSecs: Double)

  /** Exact vs GR on 3 neighborhood extracts of about 30 vertices and 5
    * seeds of the EmailCore substitute under `model` ("TR" → Table V, "WC"
    * → Table VI), at b = 1 to 4. GR selects on 300 worlds; both sides are
    * evaluated on the same fixed pool of 500 sampled worlds (common random
    * numbers), mirroring the paper's exact-spread comparison.
    */
  def tableExactVsGR(spark: SparkSession, model: String): Seq[ExactRow] = {
    val thetaEval = 500
    val masterSeed = 42L
    val spec = Datasets.byName("EmailCore")
    val base = Datasets.withModel(spec.graph, model, spec.seed)
    val extracts = (1 to 3).map { i =>
      val (sub, _) = Extracts.neighborhoodExtract(base, 30, masterSeed + i)
      val seeds = Datasets.randomSeeds(sub, 5, masterSeed + 100 + i)
      (sub, seeds)
    }
    (1 to 4).map { b =>
      var exS, grS, exT, grT = 0.0
      for (((sub, seeds), i) <- extracts.zipWithIndex) {
        val evalSeed = Rng.splitmix64(masterSeed + 1000 + i)
        val ((_, exSpread), exSecs) =
          Fmt.timed(ExactBlocker.run(spark, sub, seeds, b, thetaEval, evalSeed))
        val (grBlockers, grSecs) =
          Fmt.timed(GreedyReplace.run(spark, sub, seeds, b, 300,
            Rng.splitmix64(masterSeed + 2000 + i)))
        val grSpread = MonteCarloSpread.spreadWithBlockers(
          spark, sub, Blocking.rootsOf(sub, seeds), grBlockers, thetaEval, evalSeed)
        exS += exSpread; grS += grSpread; exT += exSecs; grT += grSecs
      }
      val k = extracts.size
      ExactRow(b, exS / k, grS / k, (exS / k) / (grS / k), exT / k, grT / k)
    }
  }

  // ------------------------------------------------------------------
  // Table VII — RA / OD / AG / GR across datasets, budgets, models
  // ------------------------------------------------------------------

  final case class T7Row(dataset: String, b: Int, ra: Double, od: Double, ag: Double, gr: Double)

  /** One dataset's Table-VII column block under `model`: expected spread of
    * the four heuristics at every budget, AG and GR selecting on 100 worlds,
    * evaluated with MCS on 1 000 common sampled worlds. Every step runs on
    * the driver or over Spark as [[repro.Execution]] decides from its size.
    */
  def tableVIIFor(
      spark: SparkSession,
      spec: DatasetSpec,
      model: String,
      budgets: Seq[Int] = Seq(20, 40, 60, 80, 100),
      nSeeds: Int = 10): Seq[T7Row] = {
    val masterSeed = 77L
    val g = Datasets.withModel(spec.graph, model, spec.seed)
    val seeds = Datasets.randomSeeds(g, nSeeds, masterSeed + spec.seed)
    val roots = Blocking.rootsOf(g, seeds)
    val evalSeed = Rng.splitmix64(masterSeed ^ spec.seed)

    def eval(blockers: Seq[Int]): Double =
      MonteCarloSpread.spreadWithBlockers(spark, g, roots, blockers, 1000, evalSeed)

    val agByBudget = AdvancedGreedy.runWithCheckpoints(
      spark, g, seeds, budgets, 100, masterSeed + 1)
    budgets.map { b =>
      val ra = Heuristics.rand(g, seeds, b, masterSeed + 2)
      val od = Heuristics.outDegree(g, seeds, b)
      val gr = GreedyReplace.run(spark, g, seeds, b, 100, masterSeed + 3)
      T7Row(spec.name, b, eval(ra), eval(od), eval(agByBudget(b)), eval(gr))
    }
  }
}
