package repro.perfbench

import repro.exp.Datasets
import repro.graph.{ProbGraph, PropModels, SocialGraphGen}
import repro.util.Rng

/** One benchmark workload: its input graph and the algorithm settings of
  * its pipeline. Every graph is a TR (trivalency) power-law graph from
  * `SocialGraphGen`, as in the paper's Table VII.
  *
  * The graph, the seed set and the sampled worlds are fixed per workload;
  * the workload seed draws RA's blockers. With the sampled worlds drawn
  * from the workload seed too, GR's number of rounds, and with it its time,
  * differed by up to 60% between seeds, and spreads differed (see NOTES.md).
  *
  * @param graphSeed generator and TR seed of the graph; the seed set is
  *                  Table VII's uniform draw among non-sink vertices, made
  *                  from it
  * @param budgets   AG is run once up to `budgets.max` (checkpointed), GR
  *                  once per budget; spreads are reported at `budgets.max`
  * @param bgN       vertices of the BG-vs-AG instance; `n` reuses the
  *                  workload graph, a smaller value generates a graph of the
  *                  same density (BG's per-candidate sweep costs
  *                  O(n·r·reach) per round and cannot run at the full size)
  */
final case class Workload(
    name: String,
    n: Int,
    pairs: Int,
    directed: Boolean,
    graphSeed: Long,
    nSeeds: Int,
    budgets: Seq[Int],
    theta: Int,
    rEval: Int,
    bgN: Int,
    bgBudget: Int,
    bgR: Int) {
  require(budgets == budgets.sorted.distinct && budgets.head >= 1, "budgets must be increasing")
  def bMax: Int = budgets.max
}

object Workload {

  /** Why each workload exists is recorded in perfbench/NOTES.md. */
  val all: Seq[Workload] = Seq(
    // The Wiki-Vote substitute of repro.exp.Datasets with Table VII's seed
    // set: ~18 vertices reached per world, so AG/GR time is mostly Spark job
    // overhead and BG's sweep is mostly MCS.
    Workload("table7-wiki-tr", n = 1400, pairs = 8000, directed = true, graphSeed = 13L, nSeeds = 10,
      budgets = Seq(5, 10, 20), theta = 100, rEval = 1000, bgN = 1400, bgBudget = 3, bgR = 100),
    // Large sparse graph: a world reaches a few % of n, so O(n) per-sample
    // allocation and the per-round CSR rebuild dominate.
    Workload("sparse-100k-tr", n = 100000, pairs = 150000, directed = false, graphSeed = 21L, nSeeds = 10,
      budgets = Seq(2), theta = 100, rEval = 100, bgN = 2000, bgBudget = 2, bgR = 50),
    // Dense graph (EmailCore-like degree): a world reaches over a third of
    // n, so dominator-tree and MCS work scale with reach, not with n. Run by
    // hand only: BENCHMARK.json does not list it (see NOTES.md, Sizing).
    Workload("dense-5k-tr", n = 5000, pairs = 75000, directed = false, graphSeed = 22L, nSeeds = 10,
      budgets = Seq(2), theta = 100, rEval = 200, bgN = 300, bgBudget = 2, bgR = 50))

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))
}

/** The inputs of one workload seed. */
final case class Inputs(
    g: ProbGraph,
    seeds: Set[Int],
    bgGraph: ProbGraph,
    bgSeeds: Set[Int],
    agSeed: Long,
    grSeed: Long,
    bgSeed: Long,
    raSeed: Long,
    evalSeed: Long) {
  val roots: Array[Int] = seeds.toArray.sorted
  val bgRoots: Array[Int] = bgSeeds.toArray.sorted
}

object Inputs {

  /** Table VII's default master seed (`Tables.tableVIIFor`). */
  private val TableMaster = 77L

  /** The workload's TR graph at `n` vertices (same pairs-per-vertex ratio);
    * for table7-wiki-tr this is `Datasets`' Wiki-Vote substitute under TR.
    */
  def graph(w: Workload, n: Int): ProbGraph = {
    val pairs = (w.pairs.toLong * n / w.n).toInt
    val seed = if (n == w.n) w.graphSeed else w.graphSeed + n
    PropModels.trivalency(SocialGraphGen.powerLaw(n, pairs, w.directed, seed), seed)
  }

  /** Master seeds follow `Tables.tableVIIFor` at its default master seed,
    * except RA's, which is drawn from the workload seed.
    */
  def generate(w: Workload, seed: Long): Inputs = {
    def draw(g: ProbGraph) = Datasets.randomSeeds(g, w.nSeeds, TableMaster + w.graphSeed)
    val g = graph(w, w.n)
    val (bgGraph, bgSeeds) =
      if (w.bgN == w.n) (g, draw(g))
      else { val h = graph(w, w.bgN); (h, draw(h)) }
    Inputs(g, draw(g), bgGraph, bgSeeds,
      agSeed = TableMaster + 1, raSeed = Rng.splitmix64(seed), grSeed = TableMaster + 3, bgSeed = TableMaster + 4,
      evalSeed = Rng.splitmix64(TableMaster ^ w.graphSeed))
  }
}
