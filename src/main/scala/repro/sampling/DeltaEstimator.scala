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
  * The seeds are the children of the dominator tree's virtual root and the
  * blocked vertices a mask, so a round runs on the original graph: its
  * samples cost what they reach. A root's Δ is 0: it is not a candidate.
  *
  * The distributed path fans the θ samples out over a `spark.range(θ)`
  * Dataset; each task runs the sample→dominator-tree→subtree-size kernel on
  * the broadcast graph with one [[DominatorTree.Workspace]] and
  * pre-aggregates into a partition-local Δ array, so one job is one narrow
  * stage plus a driver-side merge. Which path a run takes is decided by
  * [[repro.Execution]].
  */
object DeltaEstimator {

  /** Add one sampled world's subtree sizes into `acc` (length ≥ g.n), roots
    * included.
    */
  def accumulateSample(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      sampleSeed: Long,
      acc: Array[Double],
      ws: DominatorTree.Workspace,
      model: TriggeringModel): Unit = {
    DominatorTree.compute(g, roots, blocked, model.liveEdge(g, sampleSeed), ws)
    var i = 1 // dfn 0 is the virtual root
    while (i < ws.count) {
      acc(ws.vertexOf(i)) += ws.size(i)
      i += 1
    }
  }

  /** Δ from the θ-sample sums in `acc`, in place. */
  private def finish(acc: Array[Double], roots: Array[Int], theta: Int): Array[Double] = {
    var v = 0
    while (v < acc.length) { acc(v) /= theta; v += 1 }
    roots.foreach(acc(_) = 0.0)
    acc
  }

  /** Driver-side estimate with the seeds `roots` and `blocked` vertices
    * removed (null: none): the reference implementation, and the path taken
    * when a Spark job would cost more than the samples it runs.
    */
  def estimateLocal(
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      theta: Int,
      masterSeed: Long,
      model: TriggeringModel): Array[Double] = {
    require(theta >= 1, "theta must be positive")
    val acc = new Array[Double](g.n)
    val ws = new DominatorTree.Workspace(g.n)
    var i = 0L
    while (i < theta) {
      accumulateSample(g, roots, blocked, Rng.sampleSeed(masterSeed, i), acc, ws, model)
      i += 1
    }
    finish(acc, roots, theta)
  }

  /** Driver-side estimate from a single root. */
  def estimateLocal(
      g: ProbGraph,
      root: Int,
      theta: Int,
      masterSeed: Long,
      model: TriggeringModel = TriggeringModel.IndependentCascade): Array[Double] =
    estimateLocal(g, Array(root), null, theta, masterSeed, model)

  /** Distributed estimate: θ samples fanned out over the cluster, one
    * workspace and one partition-local Δ array per task, merged on the
    * driver. Returns Δ[u] for every vertex id.
    */
  def estimate(
      spark: SparkSession,
      g: ProbGraph,
      roots: Array[Int],
      blocked: Array[Boolean],
      theta: Int,
      masterSeed: Long,
      model: TriggeringModel): Array[Double] = {
    require(theta >= 1, "theta must be positive")
    import spark.implicits._
    val bc = spark.sparkContext.broadcast((g, roots, Option(blocked)))
    try {
      val partials = spark
        .range(theta)
        .as[Long]
        .mapPartitions { ids =>
          val (graph, rs, blk) = bc.value
          val acc = new Array[Double](graph.n)
          val ws = new DominatorTree.Workspace(graph.n)
          var any = false
          ids.foreach { id =>
            any = true
            accumulateSample(graph, rs, blk.orNull, Rng.sampleSeed(masterSeed, id), acc, ws, model)
          }
          if (any) Iterator.single(acc) else Iterator.empty
        }
        .collect()
      val acc = new Array[Double](g.n)
      for (p <- partials) {
        var v = 0
        while (v < g.n) { acc(v) += p(v); v += 1 }
      }
      finish(acc, roots, theta)
    } finally bc.destroy()
  }

  /** Distributed estimate from a single root. */
  def estimate(
      spark: SparkSession,
      g: ProbGraph,
      root: Int,
      theta: Int,
      masterSeed: Long,
      model: TriggeringModel = TriggeringModel.IndependentCascade): Array[Double] =
    estimate(spark, g, Array(root), null, theta, masterSeed, model)
}
