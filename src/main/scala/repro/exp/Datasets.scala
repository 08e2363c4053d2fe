package repro.exp

import repro.graph.{ProbGraph, PropModels, SocialGraphGen}
import repro.util.Rng
import scala.util.Random

/** Registry of the paper's 8 SNAP datasets (Table IV) and their synthetic
  * scaled-down substitutes (the image is offline — see DESIGN.md §4).
  *
  * `scaledN` / `scaledPairs` are chosen so each substitute keeps its
  * dataset's character (directedness, relative density, ordering by edge
  * count) while the full Table V/VI/VII sweeps stay inside the CI budget.
  * For undirected datasets `scaledPairs` counts undirected pairs (each
  * becomes two directed edges), matching SNAP's edge accounting.
  */
final case class DatasetSpec(
    name: String,
    directed: Boolean,
    paperN: Int,
    paperM: Int,
    paperDavg: Double,
    paperDmax: Int,
    scaledN: Int,
    scaledPairs: Int,
    seed: Long) {

  /** The scaled synthetic graph (all probabilities 1 until a model is set). */
  def graph: ProbGraph =
    SocialGraphGen.powerLaw(scaledN, scaledPairs, directed, seed)

  /** Raw edge count in the dataset's own accounting (pairs if undirected). */
  def rawEdgeCount(g: ProbGraph): Int = if (directed) g.m else g.m / 2
}

object Datasets {

  val all: Seq[DatasetSpec] = Seq(
    DatasetSpec("EmailCore", directed = true,  1005,    25571,   49.6, 544,   400,  6000,  11L),
    DatasetSpec("Facebook",  directed = false, 4039,    88234,   43.7, 1045,  800,  6000,  12L),
    DatasetSpec("Wiki-Vote", directed = true,  7115,    103689,  29.1, 1167,  1400, 8000,  13L),
    DatasetSpec("EmailAll",  directed = true,  265214,  420045,  3.2,  7636,  3000, 5000,  14L),
    DatasetSpec("DBLP",      directed = false, 317080,  1049866, 6.6,  343,   3000, 5000,  15L),
    DatasetSpec("Twitter",   directed = true,  81306,   1768149, 59.5, 10336, 2000, 12000, 16L),
    DatasetSpec("Stanford",  directed = true,  281903,  2312497, 16.4, 38626, 3000, 10000, 17L),
    DatasetSpec("Youtube",   directed = false, 1134890, 2987624, 5.3,  28754, 4000, 6000,  18L),
  )

  def byName(name: String): DatasetSpec =
    all.find(_.name == name).getOrElse(sys.error(s"unknown dataset $name"))

  /** Apply a propagation model ("TR" or "WC") to a generated graph. */
  def withModel(g: ProbGraph, model: String, seed: Long): ProbGraph = model match {
    case "TR" => PropModels.trivalency(g, seed)
    case "WC" => PropModels.weightedCascade(g)
    case other => sys.error(s"unknown propagation model $other")
  }

  /** `count` random distinct seed vertices, deterministic in `seed`. Seeds
    * are drawn among vertices with at least one out-edge (an isolated
    * "seed" would make its row trivially constant — the paper's random
    * draws over SNAP graphs virtually never hit one).
    */
  def randomSeeds(g: ProbGraph, count: Int, seed: Long): Set[Int] = {
    val pool = java.util.stream.IntStream.range(0, g.n).filter(g.outDegree(_) > 0).toArray
    require(pool.length >= count, s"not enough non-sink vertices for $count seeds")
    Rng.shuffle(new Random(seed), pool).take(count).toSet
  }
}
