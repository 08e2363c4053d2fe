package repro.imin

import org.apache.spark.sql.SparkSession
import repro.graph.{ProbGraph, SeedReduction}
import repro.sampling.{DeltaEstimator, GraphSampler, TriggeringModel}

/** Shared plumbing for the blocker-selection algorithms. */
object Blocking {

  /** Boolean mask over `n` vertices from a blocker collection. */
  def maskOf(n: Int, blockers: Iterable[Int]): Array[Boolean] = {
    val mask = new Array[Boolean](n)
    blockers.foreach(mask(_) = true)
    mask
  }

  /** Vertices reachable from `roots` over positive-probability edges: the
    * only vertices whose blocking can decrease the spread.
    */
  def support(g: ProbGraph, roots: Array[Int]): Array[Boolean] = {
    val vis = new Array[Boolean](g.n)
    GraphSampler.reach(g, roots, null, vis)(e => g.probs(e) > 0.0)
    vis
  }

  /** Deterministic argmax of `delta` over vertices satisfying `allowed`:
    * largest delta, ties broken by smallest id; -1 when nothing is allowed.
    */
  def argmaxDelta(delta: Array[Double], allowed: Int => Boolean): Int = {
    var best = -1
    var v = 0
    while (v < delta.length) {
      if (allowed(v) && (best == -1 || delta(v) > delta(best))) best = v
      v += 1
    }
    best
  }

  /** Reduce to a single-seed instance and build the candidate filter: the
    * unified seed and the (now isolated) original seeds are never blockable.
    */
  def reduced(g: ProbGraph, seeds: Set[Int]): (SeedReduction.Reduced, Int => Boolean) = {
    val red = SeedReduction.reduce(g, seeds)
    val notSeed = (v: Int) => v != red.superSeed && !seeds.contains(v)
    (red, notSeed)
  }

  /** One AG/GR round: Δ of every vertex of the reduced graph once `blocked`
    * vertices are removed (Algorithm 2), on the driver (`cluster = None`) or
    * as one Spark job.
    */
  private[imin] def roundDeltas(
      cluster: Option[SparkSession],
      red: SeedReduction.Reduced,
      blocked: Array[Boolean],
      theta: Int,
      roundSeed: Long,
      model: TriggeringModel): Array[Double] = {
    val current = red.graph.blockVertices(blocked)
    cluster match {
      case Some(spark) => DeltaEstimator.estimate(spark, current, red.superSeed, theta, roundSeed, model)
      case None => DeltaEstimator.estimateLocal(current, red.superSeed, theta, roundSeed, model)
    }
  }
}
