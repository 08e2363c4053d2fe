package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.graph.SeedReduction
import scala.collection.mutable

/** Benchmark entry point, started by perfbench/run.py:
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *        --cores <N> --work-dir <dir> [--env key=value]...
  *
  * Sets up the workload several times (Spark session plus input
  * generation), runs one cold pass and one discarded warm pass, then warm
  * passes for `--seconds`. Untraced, it reports the end-to-end metrics;
  * traced, untraced and traced passes (Spark listener attached) run in
  * turn, and the layer probes run once at the end. The last stdout
  * line is the result object.
  */
object Main {

  /** Setup repetitions; setup_s is their median. */
  val SetupReps = 5

  final case class Args(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      cores: Int,
      workDir: String,
      env: Seq[(String, String)])

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments near ${other.mkString(" ")}")
    }.toSeq
    def one(k: String): String = kv.collectFirst { case (`k`, v) => v }
      .getOrElse(throw new IllegalArgumentException(s"missing --$k"))
    val trace = one("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
    }
    Args(one("workload"), one("seed").toLong, one("seconds").toDouble, trace, one("cores").toInt,
      one("work-dir"), kv.collect { case ("env", v) => v.split("=", 2) match { case Array(a, b) => a -> b } })
  }

  def startSpark(a: Args): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${a.cores}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"${a.workDir}/spark-local")
      .config("spark.sql.warehouse.dir", s"${a.workDir}/spark-warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** One stderr line per pass, for reading a run's warm-up and drift. */
  private def report(kind: String, p: Pass, steal: Double): Unit = {
    def fmt(s: Stages) = Seq(s.total, s.ag, s.gr, s.bg, s.eval, s.ag2).map(x => f"$x%.3f").mkString("/")
    Console.err.println(s"perfbench $kind pass: total/ag/gr/bg/eval/ag2 wall ${fmt(p.wall)} s, " +
      s"cpu ${fmt(p.cpu)} s, alloc ${p.allocBytes / 1e9} GB, host steal ${f"${100 * steal}%.1f"}%")
  }

  private def timedS[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime(); val r = body; (r, Pipeline.secondsSince(t0))
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val w = Workload.byName(a.workload)
    val ops = new Ops
    val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
    var spark: SparkSession = null
    val ok =
      try { measure(a, w, ops, metrics, s => spark = s); true }
      catch {
        case e: Throwable =>
          e.printStackTrace()
          ops.attempted += 1; ops.failed += 1
          false
      } finally if (spark != null) spark.stop()
    println(Json.obj(Seq(
      "correct" -> (ok && ops.failed == 0).toString,
      "attempted" -> ops.attempted.toString,
      "failed" -> ops.failed.toString,
      "metrics" -> Json.obj(metrics.toSeq.map { case (k, (v, unit)) =>
        k -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(unit)))
      }))))
    System.out.flush()
    sys.exit(if (ok) 0 else 1)
  }

  private def measure(
      a: Args,
      w: Workload,
      ops: Ops,
      metrics: mutable.Map[String, (Double, String)],
      sessionStarted: SparkSession => Unit): Unit = {
    // --- set-up, repeated; the last session and inputs are kept ----------
    val setupS, genS, reduceS = mutable.ArrayBuffer.empty[Double]
    var spark: SparkSession = null
    var in: Inputs = null
    for (_ <- 0 until SetupReps) {
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = startSpark(a)
      sessionStarted(spark)
      in = Inputs.generate(w, a.seed)
      setupS += Pipeline.secondsSince(t0)
      if (a.trace) {
        genS += timedS(Inputs.graph(w, w.n))._2
        reduceS += timedS(SeedReduction.reduce(in.g, in.seeds))._2
      }
    }
    val sc = spark.sparkContext
    println(Json.obj(Seq("env" -> Json.obj(
      a.env.map { case (k, v) => k -> Json.str(v) } ++ Seq(
        "workload" -> Json.str(w.name),
        "seed" -> a.seed.toString,
        "seconds" -> Json.num(a.seconds),
        "trace" -> a.trace.toString,
        "master" -> Json.str(sc.master),
        "cores" -> a.cores.toString,
        "default_parallelism" -> sc.defaultParallelism.toString,
        "heap_max_mb" -> (Runtime.getRuntime.maxMemory >> 20).toString,
        "java" -> Json.str(System.getProperty("java.version")),
        "spark" -> Json.str(spark.version),
        "n" -> in.g.n.toString,
        "m" -> in.g.m.toString,
        "seeds" -> in.seeds.size.toString,
        "theta" -> w.theta.toString,
        "budgets" -> w.budgets.mkString("[", ",", "]"),
        "r_eval" -> w.rEval.toString,
        "bg_n" -> in.bgGraph.n.toString,
        "bg_m" -> in.bgGraph.m.toString,
        "bg_b" -> w.bgBudget.toString,
        "bg_r" -> w.bgR.toString)))))

    // --- cold pass, then warm passes for the measured window ----------------
    System.gc()
    var ticks = Host.cpuTicks()
    def stealSinceLast(): Double = { val t = Host.cpuTicks(); val s = Host.stealShare(ticks, t); ticks = t; s }
    val cold = Pipeline.run(spark, w, in, ops)
    Pipeline.check(w, cold, ops)
    report("cold", cold, stealSinceLast())
    val warm = mutable.ArrayBuffer.empty[Pass]
    val traced = mutable.ArrayBuffer.empty[Trace.Traced]
    def untracedPass(): Unit = {
      System.gc()
      warm += Pipeline.run(spark, w, in, ops)
      Pipeline.checkSame(cold, warm.last, ops)
      report("warm", warm.last, stealSinceLast())
    }
    def tracedPass(): Unit = {
      System.gc()
      traced += Trace.tracedPass(spark, w, in, ops)
      Pipeline.checkSame(cold, traced.last.pass, ops)
      report("traced", traced.last.pass, stealSinceLast())
    }
    // The first warm pass is still warming up (JIT), about 15-25% slower
    // than later ones; it is run and discarded in both modes. Traced, each
    // pair of passes swaps which one runs first, so that trace.overhead_s
    // does not pick up the speed-up of later passes. A pass (or pair)
    // starts only while the previous one would still end within the
    // window, so a slow host gives fewer passes, not a longer run.
    untracedPass()
    warm.clear()
    val minPasses = if (a.trace) 1 else 3
    val loop0 = System.nanoTime()
    var lastS = 0.0
    while (warm.size < minPasses || Pipeline.secondsSince(loop0) + lastS <= a.seconds) {
      val t0 = System.nanoTime()
      if (!a.trace) untracedPass()
      else if (warm.size % 2 == 0) { untracedPass(); tracedPass() }
      else { tracedPass(); untracedPass() }
      lastS = Pipeline.secondsSince(t0)
    }
    def med(f: Pass => Double) = Stats.median(warm.map(f))
    def medAg(f: Pass => Stages) = Stats.median(warm.flatMap(f(_).agRuns))
    val agBlockers = cold.blockers(s"ag@${w.bMax}")

    if (!a.trace) {
      metrics ++= Seq(
        "setup_s" -> (Stats.median(setupS), "s"),
        "ag_cpu_s" -> (medAg(_.cpu), "s"),
        "gr_cpu_s" -> (med(_.cpu.gr), "s"),
        "total_cpu_s" -> (med(_.cpu.total), "s"),
        "driver_cpu_s" -> (med(_.driver.total), "s"),
        "alloc_gb" -> (med(_.allocBytes.toDouble) / 1e9, "GB"),
        "ag_spread" -> (cold.spreads(s"ag@${w.bMax}"), "vertices"),
        "gr_spread" -> (cold.spreads(s"gr@${w.bMax}"), "vertices"),
        "bg_spread" -> (cold.spreads("bg"), "vertices"))
    } else {
      def tmed(f: Trace.Traced => Double) = Stats.median(traced.map(f))
      val jobs = tmed(_.counters.jobWallMs.size.toDouble)
      val tasks = tmed(_.counters.tasks.toDouble)
      val failedTasks = tmed(_.counters.failedTasks.toDouble)
      val waitS = tmed(_.counters.waitMs / 1e3)
      val jobMs = traced.flatMap(_.counters.jobWallMs)
      ops.check(jobs >= 1 && tasks >= jobs, s"listener saw $jobs jobs and $tasks tasks")
      ops.check(failedTasks <= tasks, s"listener saw $failedTasks failed of $tasks tasks")
      ops.check(waitS >= 0 && waitS <= tmed(_.counters.jobWallMs.sum / 1e3), s"spark.wait_s $waitS outside job wall time")
      val rounds = math.max(1, agBlockers.size)
      metrics ++= Seq(
        "graph.gen_s" -> (Stats.median(genS), "s"),
        "graph.reduce_s" -> (Stats.median(reduceS), "s"))
      metrics ++= Trace.probes(spark, w, in, agBlockers, ops)
      metrics ++= Seq(
        "imin.ag_rounds" -> (agBlockers.size.toDouble, "count"),
        "imin.ag_round_s" -> (medAg(_.wall) / rounds, "s"),
        "imin.gr_over_ag" -> (med(_.wall.gr) / medAg(_.wall), "ratio"),
        "spark.jobs" -> (jobs, "count"),
        "spark.tasks" -> (tasks, "count"),
        "spark.failed_tasks" -> (failedTasks, "count"),
        "spark.job_ms_p50" -> (Stats.median(jobMs), "ms"),
        "spark.job_ms_p90" -> (Stats.percentile(jobMs, 0.9), "ms"),
        "spark.wait_s" -> (waitS, "s"),
        "spark.task_busy_s" -> (tmed(_.counters.runMs / 1e3), "s"),
        "spark.deser_s" -> (tmed(_.counters.deserMs / 1e3), "s"),
        "spark.result_mb" -> (tmed(_.counters.resultBytes / 1e6), "MB"),
        "spark.broadcast_mb" -> (tmed(_.counters.broadcastBytes / 1e6), "MB"),
        "jvm.gc_s" -> (tmed(_.gcMs / 1e3), "s"),
        "jvm.gc_count" -> (tmed(_.gcCount.toDouble), "count"),
        "wall.total_s" -> (med(_.wall.total), "s"),
        "wall.ag_s" -> (medAg(_.wall), "s"),
        "wall.gr_s" -> (med(_.wall.gr), "s"),
        "wall.bg_s" -> (med(_.wall.bg), "s"),
        "wall.eval_s" -> (med(_.wall.eval), "s"),
        "wall.cold_s" -> (cold.wall.total, "s"),
        "cpu.cold_s" -> (cold.cpu.total, "s"),
        "cpu.bg_s" -> (med(_.cpu.bg), "s"),
        "cpu.eval_s" -> (med(_.cpu.eval), "s"),
        "trace.overhead_s" -> (tmed(_.pass.wall.total) - med(_.wall.total), "s"))
    }
  }
}

/** Minimal JSON rendering for the result and environment lines. */
object Json {
  def str(s: String): String =
    s.flatMap {
      case '"' => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    }.mkString("\"", "", "\"")
  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric value $d is not a finite number")
    d.toString
  }
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
