package repro.sampling

import org.apache.spark.sql.SparkSession
import repro.domtree.DominatorTree
import repro.graph.ProbGraph
import repro.util.Rng

/** Algorithm 2 of the paper — DecreaseESComputation.
  *
  * For every vertex `u`, estimate the decrease of expected spread caused by
  * blocking `u`, as the average over θ sampled worlds of the size of the
  * subtree rooted at `u` in the dominator tree of the sampled graph
  * (Theorems 4 and 6). One dominator tree per sample gives the estimate for
  * *all* candidate blockers at once — this is the paper's key speedup over
  * per-candidate Monte-Carlo simulation.
  *
  * The distributed path fans the θ samples out over a `spark.range(θ)`
  * Dataset; each task runs the sample→dominator-tree→subtree-size kernel on
  * the broadcast graph and pre-aggregates into a partition-local Δ array, so
  * one job is one narrow stage plus a driver-side merge. Which path a run
  * takes is decided by [[repro.Execution]].
  */
object DeltaEstimator {

  /** Add one sampled world's subtree sizes into `acc` (length ≥ g.n). */
  def accumulateSample(
      g: ProbGraph,
      root: Int,
      sampleSeed: Long,
      acc: Array[Double],
      model: TriggeringModel = TriggeringModel.IndependentCascade): Unit = {
    val dt = DominatorTree.compute(g, root, model.liveEdge(g, sampleSeed))
    val sizes = dt.subtreeSizes
    var i = 1 // skip the root: it is not a candidate blocker
    while (i < dt.count) {
      acc(dt.vertexOf(i)) += sizes(i)
      i += 1
    }
  }

  /** Driver-side estimate (the reference implementation, and the path
    * taken when a Spark job would cost more than the samples it runs).
    */
  def estimateLocal(
      g: ProbGraph,
      root: Int,
      theta: Int,
      masterSeed: Long,
      model: TriggeringModel = TriggeringModel.IndependentCascade): Array[Double] = {
    require(theta >= 1, "theta must be positive")
    val acc = new Array[Double](g.n)
    var i = 0L
    while (i < theta) {
      accumulateSample(g, root, Rng.sampleSeed(masterSeed, i), acc, model)
      i += 1
    }
    var v = 0
    while (v < g.n) { acc(v) /= theta; v += 1 }
    acc
  }

  /** Distributed estimate: θ samples fanned out over the cluster, one
    * partition-local Δ array per task, merged on the driver. Returns
    * Δ[u] for every vertex id.
    */
  def estimate(
      spark: SparkSession,
      g: ProbGraph,
      root: Int,
      theta: Int,
      masterSeed: Long,
      model: TriggeringModel = TriggeringModel.IndependentCascade): Array[Double] = {
    require(theta >= 1, "theta must be positive")
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(g)
    try {
      val partials = spark
        .range(theta)
        .as[Long]
        .mapPartitions { ids =>
          val graph = bc.value
          val acc = new Array[Double](graph.n)
          var any = false
          ids.foreach { id =>
            any = true
            accumulateSample(graph, root, Rng.sampleSeed(masterSeed, id), acc, model)
          }
          if (any) Iterator.single(acc) else Iterator.empty
        }
        .collect()
      val acc = new Array[Double](g.n)
      for (p <- partials) {
        var v = 0
        while (v < g.n) { acc(v) += p(v); v += 1 }
      }
      var v = 0
      while (v < g.n) { acc(v) /= theta; v += 1 }
      acc
    } finally bc.destroy()
  }
}
