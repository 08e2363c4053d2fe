package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.imin.{AdvancedGreedy, BaselineGreedy, GreedyReplace, Heuristics}
import repro.spread.MonteCarloSpread
import scala.collection.mutable

/** Operation accounting: every algorithm call and every output check is
  * one attempted operation; a check that does not hold is a failed one.
  */
final class Ops {
  var attempted = 0L
  var failed = 0L

  def call[A](body: => A): A = { attempted += 1; body }

  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) { failed += 1; Console.err.println(s"perfbench check failed: $what") }
  }
}

/** Seconds spent in each stage of a pass; `total` is the pipeline as a user
  * runs it, which also holds AG's run on BG's instance. `ag2` is the repeat
  * of AG at the end of the pass, outside `total`.
  */
final case class Stages(ag: Double, gr: Double, bg: Double, eval: Double, total: Double, ag2: Double) {
  def agRuns: Seq[Double] = Seq(ag, ag2)
}

/** One pass of a workload's pipeline, exactly as a user runs it: AG over
  * the budget sweep (one checkpointed run), GR at every budget, BG against
  * AG at BG's budget, and MCS evaluation of every selected set plus the RA
  * and OD baselines. Every algorithm runs through its defaults. AG, the
  * shortest of the bounded stages, then runs once more with the same inputs,
  * so that a run has twice as many AG timings as passes.
  *
  * @param wall     wall-clock seconds per stage
  * @param cpu      CPU seconds of the JVM's Java threads per stage (driver
  *                 and Spark executor threads; not JIT or GC threads)
  * @param driver   CPU seconds of the thread that runs the pipeline, the
  *                 Spark driver, per stage
  * @param blockers selected sets by key: `ag@b`, `gr@b`, `ra@b`, `od@b`,
  *                 `bg`, `ag-vs-bg`
  * @param spreads  MCS expected spread of each selected set (same keys)
  */
final case class Pass(
    wall: Stages,
    cpu: Stages,
    driver: Stages,
    allocBytes: Long,
    blockers: Map[String, Seq[Int]],
    spreads: Map[String, Double])

object Pipeline {

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def run(spark: SparkSession, w: Workload, in: Inputs, ops: Ops): Pass = {
    val driverId = Thread.currentThread().getId
    val alloc0 = Jvm.allocatedBytes()
    val laps = mutable.ArrayBuffer.empty[(Long, Map[Long, Long])]
    def lap(): Unit = laps += (System.nanoTime() -> Jvm.threadCpuNanos())
    lap()

    val ag = ops.call(AdvancedGreedy.runWithCheckpoints(spark, in.g, in.seeds, w.budgets, w.theta, in.agSeed))
    lap()
    val gr = w.budgets.map(b => b -> ops.call(GreedyReplace.run(spark, in.g, in.seeds, b, w.theta, in.grSeed))).toMap
    lap()
    val bg = ops.call(BaselineGreedy.run(spark, in.bgGraph, in.bgSeeds, w.bgBudget, w.bgR, in.bgSeed))
    lap()
    // The Fig. 7/8 comparison: AG with θ = r on BG's instance.
    val agVsBg = ops.call(AdvancedGreedy.run(spark, in.bgGraph, in.bgSeeds, w.bgBudget, w.bgR, in.bgSeed))
    lap()
    val selected: Seq[(String, Seq[Int])] = w.budgets.flatMap { b =>
      Seq(
        s"ag@$b" -> ag(b),
        s"gr@$b" -> gr(b),
        s"ra@$b" -> ops.call(Heuristics.rand(in.g, in.seeds, b, in.raSeed)),
        s"od@$b" -> ops.call(Heuristics.outDegree(in.g, in.seeds, b)))
    }
    val spreads = selected.map { case (k, bl) =>
      k -> ops.call(MonteCarloSpread.spreadWithBlockers(spark, in.g, in.roots, bl, w.rEval, in.evalSeed))
    } ++ Seq("bg" -> bg, "ag-vs-bg" -> agVsBg).map { case (k, bl) =>
      k -> ops.call(MonteCarloSpread.spreadWithBlockers(spark, in.bgGraph, in.bgRoots, bl, w.rEval, in.evalSeed))
    }
    lap()
    val allocBytes = Jvm.allocatedBytes() - alloc0
    val agAgain = ops.call(AdvancedGreedy.runWithCheckpoints(spark, in.g, in.seeds, w.budgets, w.theta, in.agSeed))
    lap()
    ops.check(agAgain == ag, "AG's repeat within the pass selected other blockers")

    def stages(between: (Int, Int) => Double) =
      Stages(ag = between(0, 1), gr = between(1, 2), bg = between(2, 3), eval = between(4, 5), total = between(0, 5),
        ag2 = between(5, 6))
    Pass(
      wall = stages((a, b) => (laps(b)._1 - laps(a)._1) / 1e9),
      // A thread that ended within the interval is not counted.
      cpu = stages((a, b) => laps(b)._2.iterator.map { case (id, t) => t - laps(a)._2.getOrElse(id, 0L) }.sum / 1e9),
      driver = stages((a, b) => (laps(b)._2(driverId) - laps(a)._2(driverId)) / 1e9),
      allocBytes = allocBytes,
      blockers = (selected ++ Seq("bg" -> bg, "ag-vs-bg" -> agVsBg)).toMap,
      spreads = spreads.toMap)
  }

  /** Slack of TableVIIBench's and EfficiencyBench's comparisons. */
  private def slack(x: Double): Double = 0.05 * x + 0.3

  /** The output checks of one pass (the bench suites' shape claims). */
  def check(w: Workload, p: Pass, ops: Ops): Unit = {
    for ((k, s) <- p.spreads)
      ops.check(s >= w.nSeeds - 1e-6, s"$k spread $s below the ${w.nSeeds} seeds")
    for (b <- w.budgets) {
      val gr = p.spreads(s"gr@$b")
      for (other <- Seq("ra", "od", "ag")) {
        val o = p.spreads(s"$other@$b")
        ops.check(gr <= o + slack(o), s"b=$b: GR $gr vs ${other.toUpperCase} $o")
      }
    }
    for (alg <- Seq("ag", "gr"); Seq(a, b) <- w.budgets.sliding(2) if w.budgets.size > 1) {
      val (sa, sb) = (p.spreads(s"$alg@$a"), p.spreads(s"$alg@$b"))
      ops.check(sb <= sa + slack(sa), s"${alg.toUpperCase} not monotone: b=$a $sa, b=$b $sb")
    }
    val (ag, bg) = (p.spreads("ag-vs-bg"), p.spreads("bg"))
    ops.check(math.abs(ag - bg) <= slack(bg), s"AG $ag vs BG $bg at b=${w.bgBudget}")
  }

  /** Seeded runs are deterministic: a later pass repeats the first exactly. */
  def checkSame(first: Pass, p: Pass, ops: Ops): Unit = {
    ops.check(p.blockers == first.blockers, "blocker lists differ between passes")
    ops.check(p.spreads == first.spreads, "spreads differ between passes")
  }
}
