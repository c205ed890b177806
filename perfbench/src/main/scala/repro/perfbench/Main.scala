package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import org.apache.spark.perfbench.LayerListener
import org.apache.spark.sql.SparkSession
import repro.algos.AlgoRun
import repro.compiler.{CodegenStats, Codegen, CostBased, Selector}
import repro.core._

/** Runs one workload in this JVM and prints one line
  * `PERFBENCH {json}` with the raw measurements.
  *
  * Steps: set up the inputs (several times; the median counts), run the
  * Gen pass cold (empty plan and selection caches, first use of every
  * generated class in this JVM), run one untimed warm-up pass, run
  * `--seconds / passSeconds` warm Gen passes (at least 2), then run the
  * reference pass and check every Gen result against it. With `--trace 1`
  * the cold pass is sampled, and half of the warm passes are sampled ones
  * that the Spark listener counts, alternating with unsampled ones.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1 --out DIR
  */
object Main {

  val AlgoNames: Seq[String] = Seq("L2SVM", "MLogreg", "GLM", "KMeans", "ALS-CG", "AutoEncoder")
  /** Set-up runs at least 3 times, and up to 20 times while under 2 s in total. */
  val MinSetups = 3
  val MaxSetups = 20
  val SetupMinSeconds = 2.0
  /** Untimed warm passes between the cold pass and the timed ones, while
    * the JIT works through the methods the cold pass made hot. */
  val WarmupPasses = 1
  val MinWarmPasses = 2
  val RelTol = 1e-4

  final case class Outcome(name: String, result: Either[String, AlgoRun])

  /** A finished Gen pass with its wall time and JVM-wide counters. */
  final case class Pass(outcomes: Seq[Outcome], wallS: Double, allocBytes: Long,
                        gcMs: Long, gcCount: Long, stats: Map[String, Double],
                        profile: Option[Sampler.Profile], dist: Map[String, Double])

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workload.byName(opt("workload"))
    val seed = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val trace = opt("trace") == "1"
    val out = Paths.get(opt("out"))
    Files.createDirectories(out)

    val spans = new Spans
    val (spark, sparkStartS) =
      if (wl.usesSpark) { val (s, t) = timed(startSpark(out)); (Some(s), t) } else (None, 0.0)
    try {
      val line = spans(wl.name)(runWorkload(wl, seed, seconds, trace, spark, sparkStartS, spans))
      Files.writeString(out.resolve(s"spans-${wl.name}-seed$seed-trace${if (trace) 1 else 0}.json"), spans.toJson)
      println("PERFBENCH " + line)
    } finally spark.foreach(_.stop())
  }

  private def startSpark(out: java.nio.file.Path): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors()
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", out.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
  }

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  private def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  private def statsNow(): Map[String, Double] = Map(
    "compiler.dags" -> CodegenStats.dagsOptimized.get.toDouble,
    "compiler.cplans" -> CodegenStats.cplansConstructed.get.toDouble,
    "compiler.ops_compiled" -> CodegenStats.operatorsCompiled.get.toDouble,
    "compiler.plan_cache_hits" -> CodegenStats.planCacheHits.get.toDouble,
    "compiler.plans_costed" -> CodegenStats.plansEvaluated.get.toDouble,
    "compiler.plans_skipped" -> CodegenStats.plansSkipped.get.toDouble,
    "compiler.codegen_ms" -> CodegenStats.codegenNanos.get / 1e6,
    "compiler.javac_ms" -> CodegenStats.compileNanos.get / 1e6,
  )

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def allocatedBytes(): Long = threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum
  private def gcTotals(): (Long, Long) = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (gcs.map(_.getCollectionTime).sum, gcs.map(_.getCollectionCount).sum)
  }

  private def runCalls(calls: Seq[AlgoCall], spans: Spans, mkCtx: AlgoCall => ExecContext): Seq[Outcome] =
    calls.map { c =>
      Outcome(c.name, spans(c.name) {
        try Right(c.run(mkCtx(c)))
        catch { case NonFatal(e) => Left(s"${e.getClass.getName}: ${e.getMessage}") }
      })
    }

  /** One Gen pass. CodegenStats are reset first, so `stats` are this pass's
    * deltas; the listener, if any, is attached for this pass only. */
  private def genPass(label: String, wl: Workload, in: Inputs, spark: Option[SparkSession],
                      spans: Spans, sampled: Boolean, listener: Option[LayerListener]): Pass = {
    CodegenStats.reset()
    listener.foreach { l => l.reset(); l.sc.addSparkListener(l) }
    val (gc0, gcn0) = gcTotals()
    val a0 = allocatedBytes()
    val t0 = System.nanoTime()
    def body = spans(label)(runCalls(in.calls, spans, _ => wl.mkCtx(GenMode(CostBased), spark)))
    val (outcomes, profile) =
      if (sampled) { val (o, p) = Sampler.during(body); (o, Some(p)) } else (body, None)
    val wall = (System.nanoTime() - t0) / 1e9
    val alloc = allocatedBytes() - a0
    val (gc1, gcn1) = gcTotals()
    val dist = listener.map { l => val snap = l.snapshot(); l.sc.removeSparkListener(l); snap }
    Pass(outcomes, wall, alloc, gc1 - gc0, gcn1 - gcn0, statsNow(), profile, dist.getOrElse(Map.empty))
  }

  private def runWorkload(wl: Workload, seed: Long, seconds: Double, trace: Boolean,
                          spark: Option[SparkSession], sparkStartS: Double, spans: Spans): String = {
    // set-up: input generation and distribution, repeated; the median counts
    // (each repeat replaces the previous inputs, so only one set is live)
    var in: Inputs = null
    val setupTimes = Seq.newBuilder[Double]
    var setupUsed = 0.0
    var n = 0
    while (n < MinSetups || (setupUsed < SetupMinSeconds && n < MaxSetups)) {
      in = null
      val (i, s) = spans("setup")(timed(wl.setup(seed, spark)))
      in = i
      setupTimes += s
      setupUsed += s
      n += 1
    }
    val setupS = median(setupTimes.result())

    val listener = if (trace) spark.map(s => new LayerListener(s.sparkContext)) else None

    // cold pass: empty plan cache and selection cache
    Codegen.clearCache()
    Selector.clearSelectionCache()
    val cold = genPass("cold", wl, in, spark, spans, sampled = trace, listener = None)
    val coldCompiled = cold.stats("compiler.ops_compiled")
    if (coldCompiled <= 0)
      fail(s"cold pass compiled $coldCompiled operators; expected at least one")

    def warmPass(label: String, isTraced: Boolean): Pass = {
      val p = genPass(label, wl, in, spark, spans, sampled = isTraced, listener = if (isTraced) listener else None)
      val compiled = p.stats("compiler.ops_compiled")
      if (compiled != 0) fail(s"warm pass compiled $compiled operators; expected none")
      p
    }
    val warmups = (1 to WarmupPasses).map(_ => warmPass("warmup", isTraced = false))

    // timed warm passes; a fixed count rather than a time budget, so the
    // median does not depend on how many passes fit. With tracing, the same
    // count is split between untraced and traced passes, which alternate so
    // both see the same JVM state.
    val nWarm = math.max(MinWarmPasses, math.ceil(seconds / wl.passSeconds).toInt)
    val kinds = if (trace) Seq.fill(math.max(2, (nWarm + 1) / 2))(Seq(false, true)).flatten else Seq.fill(nWarm)(false)
    val passes = kinds.map(isTraced => warmPass(if (isTraced) "warm-traced" else "warm", isTraced))
    val (tracedPasses, warmPasses) = passes.partition(_.profile.isDefined)

    // reference pass: Base (Fused where Base is infeasible)
    val (refOutcomes, refS) = timed(spans("reference")(runCalls(in.calls, spans, c => wl.mkCtx(c.refMode, spark))))
    val ref = refOutcomes.map(o => o.name -> o.result).toMap

    val genOutcomes = (cold +: (warmups ++ passes)).flatMap(_.outcomes)
    val errors = genOutcomes.flatMap { o =>
      (o.result, ref(o.name)) match {
        case (Left(e), _) => Some(s"${o.name}: Gen failed: $e")
        case (_, Left(e)) => Some(s"${o.name}: reference failed: $e")
        case (Right(g), Right(r)) =>
          val tol = RelTol * math.max(1.0, math.abs(r.loss))
          if (g.iterations != r.iterations || !(math.abs(g.loss - r.loss) <= tol))
            Some(s"${o.name}: Gen loss ${g.loss} (${g.iterations} it) != reference ${r.loss} (${r.iterations} it)")
          else None
      }
    }
    errors.distinct.foreach(e => Console.err.println(s"[perfbench] FAILED $e"))

    val metrics = Seq.newBuilder[(String, Double)]
    metrics ++= Seq(
      "setup_s" -> setupS,
      "alloc_gb" -> median(warmPasses.map(_.allocBytes.toDouble)) / 1e9,
      "first_alloc_gb" -> cold.allocBytes / 1e9,
    )
    if (trace) metrics ++= layerMetrics(cold, warmPasses, tracedPasses, refS, sparkStartS, in.distributeS, spans)

    val heapArgs = ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filter(a => a.startsWith("-Xm"))
    val coldResults = cold.outcomes.map(o => o.name -> o.result.map(r => Json.num(r.loss)).getOrElse("null"))
    Json.obj(Seq(
      "workload" -> Json.str(wl.name),
      "seed" -> seed.toString,
      "heap_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1048576.0),
      "heap_args" -> heapArgs.map(Json.str).mkString("[", ",", "]"),
      "input_checksum" -> Json.num(in.checksum()),
      "warm_passes" -> warmPasses.size.toString,
      "traced_passes" -> tracedPasses.size.toString,
      // wall times are reported but not gated (see catalogue.json)
      "wall_s" -> Json.obj(Seq("first_run_s" -> Json.num(cold.wallS), "run_s" -> Json.num(median(warmPasses.map(_.wallS))))),
      "attempted" -> genOutcomes.size.toString,
      "failed" -> errors.size.toString,
      "errors" -> errors.map(Json.str).mkString("[", ",", "]"),
      "cold_losses" -> Json.obj(coldResults),
      "cold_counters" -> Json.obj(cold.stats.toSeq.sortBy(_._1).filter(_._1 != "compiler.codegen_ms")
        .filter(_._1 != "compiler.javac_ms").map { case (k, v) => k -> Json.num(v) }),
      "metrics" -> Json.obj(metrics.result().map { case (k, v) => k -> Json.num(v) }),
    ))
  }

  private def layerMetrics(cold: Pass, warm: Seq[Pass], traced: Seq[Pass], refS: Double,
                           sparkStartS: Double, distributeS: Double, spans: Spans): Seq[(String, Double)] = {
    val st = cold.stats
    val hits = st("compiler.plan_cache_hits")
    val compiled = st("compiler.ops_compiled")
    val costed = st("compiler.plans_costed")
    val skipped = st("compiler.plans_skipped")
    val coldProfile = cold.profile.get
    def tracedMedian(f: Pass => Double) = median(traced.map(f))
    def sampledWarm(layer: String) = tracedMedian(_.profile.get.seconds(layer))
    val runS = median(warm.map(_.wallS))
    val distKeys = Seq("dist.jobs", "dist.stages", "dist.tasks", "dist.job_wait_s", "dist.task_run_s",
      "dist.task_cpu_s", "dist.shuffle_write_mb", "dist.shuffle_read_mb", "dist.result_mb")
    Seq(
      "first_run_s" -> cold.wallS,
      "run_s" -> runS,
      "compiler.dags" -> st("compiler.dags"),
      "compiler.cplans" -> st("compiler.cplans"),
      "compiler.ops_compiled" -> compiled,
      "compiler.plan_cache_hit_ratio" -> (if (hits + compiled > 0) hits / (hits + compiled) else 0.0),
      "compiler.plans_costed" -> costed,
      "compiler.plans_skipped_ratio" -> (if (costed + skipped > 0) skipped / (costed + skipped) else 0.0),
      "compiler.codegen_ms" -> st("compiler.codegen_ms"),
      "compiler.javac_ms" -> st("compiler.javac_ms"),
      "compiler.explore_s" -> coldProfile.seconds("compiler.explore"),
      "compiler.select_s" -> coldProfile.seconds("compiler.select"),
      "compiler.cplan_s" -> coldProfile.seconds("compiler.cplan"),
      "compiler.compile_s" -> coldProfile.seconds("compiler.compile"),
      "runtime.row_s" -> sampledWarm("runtime.row"),
      "runtime.magg_s" -> sampledWarm("runtime.magg"),
      "runtime.cell_s" -> sampledWarm("runtime.cell"),
      "runtime.outer_s" -> sampledWarm("runtime.outer"),
      "runtime.basic_s" -> sampledWarm("runtime.basic"),
      "runtime.base_mode_s" -> refS,
      "runtime.fusion_speedup" -> refS / runS,
      "core.exec_s" -> sampledWarm("core.exec"),
      "dist.fused_s" -> sampledWarm("dist.fused"),
      "dist.basic_s" -> sampledWarm("dist.basic"),
      "dist.distribute_s" -> distributeS,
      "dist.spark_start_s" -> sparkStartS,
      "algos.driver_s" -> sampledWarm("algos.driver"),
      "jvm.gc_s" -> median(warm.map(_.gcMs / 1e3)),
      "jvm.gc_count" -> median(warm.map(_.gcCount.toDouble)),
      "trace.samples" -> tracedMedian(_.profile.get.samples.toDouble),
      "trace.unattributed_share" -> tracedMedian { p =>
        val pr = p.profile.get
        if (pr.samples == 0) 0.0 else pr.counts.getOrElse(Layers.Unattributed, 0L).toDouble / pr.samples
      },
      "trace.overhead" -> (tracedMedian(_.wallS) / runS - 1),
    ) ++ distKeys.map(k => k -> tracedMedian(_.dist.getOrElse(k, 0.0))) ++
      AlgoNames.map { a =>
        val ds = spans.durations(a, "warm")
        s"algos.${a}_s" -> (if (ds.isEmpty) 0.0 else median(ds))
      }
  }

  private def fail(msg: String): Nothing = {
    Console.err.println(s"[perfbench] ERROR $msg")
    sys.exit(3)
  }
}
