package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths, StandardOpenOption}
import java.security.MessageDigest
import org.apache.spark.sql.SparkSession
import repro.core._
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The MODis search benchmark: one workload per process, one search at a
  * time (a closed loop with one client), driving the public API the way
  * `Runner.modisReports` does. See perfbench/README.md.
  *
  * {{{
  * java -cp <classpath> repro.perfbench.Main --workload mental-bi --seed 1 \
  *   --seconds 10 --trace 0 --out perfbench/out
  * }}}
  */
object Main {

  /** One MODis variant on one of the program's Table lakes. */
  final case class Workload(name: String, lake: String,
                            algo: (StateSpace, Valuator, ModisConfig) => ModisResult)

  val Workloads: Vector[Workload] = Vector(
    Workload("mental-bi", "mental", BiMODis.run),
    Workload("avocado-div", "avocado", DivMODis.run),
  )

  /** Table 4/6 configuration and lake scale. */
  val Sf = 0.1
  val Cfg: ModisConfig = ModisConfig(n = 150, eps = 0.1, maxl = 6, bootstrap = 20)
  /** Set-ups per run: one cold, then `WarmSetups` whose median is `setup_s`. */
  val WarmSetups = 2
  /** No-op calls timed on a spare [[Recorder]] to price one span and one
    * `rowCount` for `trace.overhead_ratio`.
    */
  val OverheadProbes = 200000

  /** `seed` is the engine's seed (`ModisConfig.seed`). */
  final case class Args(workload: Workload, seed: Long, seconds: Double, trace: Boolean, out: Path)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad argument ${other.mkString(" ")}")
    }.toMap
    val w = Workloads.find(_.name == kv("workload")).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${kv("workload")}; one of ${Workloads.map(_.name).mkString(", ")}"))
    Args(w, kv("seed").toLong, kv("seconds").toDouble, kv.getOrElse("trace", "0") == "1",
      Paths.get(kv.getOrElse("out", "perfbench/out")))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val threads = math.min(4, Runtime.getRuntime.availableProcessors)
    // Same session settings as the test and Table suites (SparkSpec).
    val spark = SparkSession.builder
      .master(s"local[$threads]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    try new Bench(spark, args).run()
    finally spark.stop()
  }

  def sec(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty || xs.size % 2 == 1) quantile(xs, 0.5)
    else { val s = xs.sorted; (s(s.size / 2 - 1) + s(s.size / 2)) / 2 }

  /** Nearest-rank quantile; NaN on no samples. */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) Double.NaN
    else { val s = xs.sorted; s(math.min(s.size - 1, math.max(0, math.ceil(q * s.size).toInt - 1))) }

  def heapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def digest(states: Seq[State]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    states.map(_.toString).sorted.foreach(b => md.update(b.getBytes(StandardCharsets.UTF_8)))
    md.digest().take(6).map(b => f"$b%02x").mkString
  }

  def json(m: Map[String, (Double, String)]): String =
    m.toSeq.sortBy(_._1).map { case (k, (v, u)) =>
      val num = if (v.isNaN || v.isInfinite) "null" else v.toString
      s""""$k": {"value": $num, "unit": "$u"}"""
    }.mkString("{", ", ", "}")
}

/** What one search did, captured as soon as it returned. */
final case class Outcome(
    search: Int, genSec: Double, heapMb: Double,
    failure: Option[String], checkSec: Double, rimp: Double,
    explored: Int, pruned: Int, skyline: Int, digest: String,
    rec: Recorder, replay: Vector[(Long, Int)], // (collect ns, rows) per exactly evaluated state
) {
  def path: String = s"exact=${rec.exactEvaluations} rows=${rec.rowsUsable} explored=$explored " +
    s"pruned=$pruned skyline=$skyline digest=$digest"
}

final class Bench(spark: SparkSession, args: Main.Args) {
  import Main._

  private val w = args.workload
  private val primary = Runner.primaryMeasure(w.lake)
  private val log = new StringBuilder

  private def say(line: String): Unit = { println(line); log.append(line).append('\n') }

  /** One set-up: lake generation, `Universal.build` and calibration; the
    * SparkSession is not part of it.
    */
  private final case class Setup(u: UniversalTable, task: TabularTask,
                                 lakeSec: Double, buildSec: Double, calibrateSec: Double) {
    def sec: Double = lakeSec + buildSec + calibrateSec
  }

  private def setup(): Setup = {
    val t0 = System.nanoTime()
    val lake = Runner.lakeByName(spark, w.lake, Sf)
    val t1 = System.nanoTime()
    val u = Universal.build(lake)
    val t2 = System.nanoTime()
    val task = TabularTask.forLake(lake).calibrated(u.materialize(State.full(u.layout.width)))
    Setup(u, task, (t1 - t0) / 1e9, (t2 - t1) / 1e9, sec(t2))
  }

  private def loss(raw: Map[String, Double]): Double = primary match {
    case "acc" | "f1" => 1.0 - raw(primary)
    case "mse"        => raw(primary)
    case other        => throw new IllegalStateException(s"no loss for $other")
  }

  def run(): Unit = {
    // Warm-up policy, the same in every run whatever the program's speed:
    // the first set-up runs in a cold JVM and is kept out of `setup_s` (the
    // traced run reports it as warmup.first_setup_s); `setup_s` is the
    // median of the warm set-ups after it. The metrics of a search are those
    // of the first search, warmed only by the set-ups; searches after it in
    // the window are checked but not measured.
    val setups = (0 to WarmSetups).foldLeft(Vector.empty[Setup]) { (done, _) =>
      done.lastOption.foreach(_.u.df.unpersist(blocking = true))
      done :+ setup()
    }
    val warm = setups.tail
    val Setup(u, task, _, _, _) = setups.last
    val primaryIdx = task.measureNames.indexOf(primary)
    val original = task.evaluate(u.df.drop(u.layout.segAttrs.map(u.hiddenCol): _*)).getOrElse(
      throw new IllegalStateException(s"Original dataset of ${w.lake} is unusable"))
    val originalLoss = loss(original.raw)
    say(f"setup ${w.name} seed=${args.seed}: " +
      setups.map(s => f"${s.sec}%.3f").mkString(" ") + " s; " +
      f"original $primary loss=$originalLoss%.5f rows=${original.rows} cols=${original.cols}")

    // Closed loop with one client: one search at a time until the window is
    // used up, and at least one.
    val cfg = Cfg.copy(seed = args.seed)
    val outcomes = Vector.newBuilder[Outcome]
    val t0 = System.nanoTime()
    var i = 0
    while (i == 0 || sec(t0) < args.seconds) {
      val o = search(i, u, task, cfg, primaryIdx, originalLoss)
      say(f"search $i${if (args.trace) " traced" else ""}: gen=${o.genSec}%.3f s ${o.path} " +
        f"rimp=${o.rimp}%.4f heap=${o.heapMb}%.1f MB checks=${o.checkSec}%.2f s${o.failure.fold("")(f => s" FAILED: $f")}")
      outcomes += o
      i += 1
    }
    val all = outcomes.result()
    val first = all.head

    val failed = all.count(_.failure.isDefined)
    val metrics: Map[String, (Double, String)] =
      if (!args.trace) Map(
        "gen_s" -> (first.genSec, "s"),
        "setup_s" -> (median(warm.map(_.sec)), "s"),
        "primary_rimp" -> (first.rimp, "ratio"),
        "success_rate" -> ((all.size - failed).toDouble / all.size, "ratio"),
        "heap_mb" -> (first.heapMb, "MB"),
      )
      else layers(first) ++ Map(
        "trace.overhead_ratio" -> (traceOverhead(first), "ratio"),
        "lake.gen_s" -> (median(warm.map(_.lakeSec)), "s"),
        "universal.build_s" -> (median(warm.map(_.buildSec)), "s"),
        "task.calibrate_s" -> (median(warm.map(_.calibrateSec)), "s"),
        "warmup.first_setup_s" -> (setups.head.sec, "s"),
      )

    val summary = s"""{"correct": ${failed == 0}, "attempted": ${all.size}, "failed": $failed, """ +
      s""""metrics": ${json(metrics)}}"""
    writeOut(all, summary)
    println(summary)
  }

  private def search(i: Int, u: UniversalTable, task: TabularTask,
                     cfg: ModisConfig, primaryIdx: Int, originalLoss: Double): Outcome = {
    val rec = new Recorder(i, args.trace)
    val space = new TracedSpace(new TabularSpace(u, task), rec)
    val valuator = new SurrogateValuator(space, Cfg.bootstrap)
    val t0 = System.nanoTime()
    val result =
      try Right(rec.span("engine.search")(w.algo(space, new TracedValuator(valuator, rec), cfg)))
      catch { case NonFatal(e) => Left(s"search threw $e") }
    val genSec = sec(t0)
    rec.close()
    val heap = heapMb()
    // collect times for the layer metrics, which come from the first search
    val replay =
      if (!args.trace || i > 0) Vector.empty
      else rec.evaluated.toVector.map { s =>
        val c0 = System.nanoTime()
        val n = u.materialize(s).collect().length
        (System.nanoTime() - c0, n)
      }
    val res = result.toOption
    val c0 = System.nanoTime()
    var rimp = Double.NaN
    val failure = result.left.toOption.orElse {
      val r = res.get
      r.bestBy(primaryIdx) match {
        case None => Some("empty skyline")
        case Some((best, _)) => valuator.exact(best) match {
          case None => Some("winner unusable")
          case Some(win) =>
            rimp = originalLoss / math.max(1e-12, loss(win.raw))
            Checks.oracleMatches(u, best).orElse(Checks.reevaluationMatches(u, task, best, win))
        }
      }
    }
    Outcome(i, genSec, heap, failure, sec(c0), rimp,
      res.fold(0)(_.explored), res.fold(0)(_.pruned), res.fold(0)(_.skyline.size),
      res.fold("-")(r => digest(r.skyline.map(_._1))), rec, replay)
  }

  /** The share of a traced search's wall time spent in tracing: its span and
    * `rowCount` counts times the cost of one traced no-op call of each.
    */
  private def traceOverhead(o: Outcome): Double = {
    val probe = new Recorder(-1, timed = true)
    val t0 = System.nanoTime()
    for (_ <- 0 until OverheadProbes) probe.span("probe")(())
    val t1 = System.nanoTime()
    for (_ <- 0 until OverheadProbes) probe.rowCount(0L)
    val t2 = System.nanoTime()
    val costNs = o.rec.spans.size * (t1 - t0).toDouble / OverheadProbes +
      o.rec.rowCountCalls * (t2 - t1).toDouble / OverheadProbes
    costNs / 1e9 / o.genSec
  }

  /** Per-layer metrics of one traced search. Layer self times add up to the
    * search's wall time: engine + valuator + space.evaluate (= universal
    * collect + ml fit + task) + space.neighbors + space.backStart + rowCount.
    */
  private def layers(o: Outcome): Map[String, (Double, String)] = {
    val r = o.rec
    val collectMs = o.replay.map(_._1 / 1e6)
    val collectS = collectMs.sum / 1e3
    val evalMs = r.named("space.evaluate").map(_.durNs / 1e6).toVector
    val evalS = evalMs.sum / 1e3
    val fitS = r.fitSec.sum
    val valuateSelf = r.selfSec("valuator.valuate")
    Map(
      "universal.collect_ms_p50" -> (quantile(collectMs, 0.5), "ms"),
      "universal.collect_ms_p90" -> (quantile(collectMs, 0.9), "ms"),
      "universal.collect_s" -> (collectS, "s"),
      "universal.rows_collected" -> (o.replay.map(_._2.toLong).sum.toDouble, "count"),
      "universal.rowcount_calls" -> (r.rowCountCalls.toDouble, "count"),
      "universal.rowcount_us_p50" -> (quantile(r.rowCountNs.map(_ / 1e3).toSeq, 0.5), "us"),
      "universal.rowcount_s" -> (r.rowCountNs.sum / 1e9, "s"),
      "space.evaluate_calls" -> (r.evaluateCalls.toDouble, "count"),
      "space.evaluate_ms_p50" -> (quantile(evalMs, 0.5), "ms"),
      "space.evaluate_ms_p90" -> (quantile(evalMs, 0.9), "ms"),
      "space.evaluate_s" -> (evalS, "s"),
      "space.unusable_ratio" -> (r.unusable.toDouble / math.max(1, r.evaluateCalls), "ratio"),
      "space.neighbors_calls" -> (r.named("space.neighbors").size.toDouble, "count"),
      "space.neighbors_s" -> (r.totalSec("space.neighbors"), "s"),
      "space.backstart_s" -> (r.totalSec("space.backStart"), "s"),
      "ml.fit_ms_p50" -> (quantile(r.fitSec.map(_ * 1e3).toSeq, 0.5), "ms"),
      "ml.fit_ms_p90" -> (quantile(r.fitSec.map(_ * 1e3).toSeq, 0.9), "ms"),
      "ml.fit_s" -> (fitS, "s"),
      "task.self_s" -> (evalS - collectS - fitS, "s"),
      "valuator.calls" -> (r.valuateCalls.toDouble, "count"),
      "valuator.exact_calls" -> (r.exactEvaluations.toDouble, "count"),
      "valuator.exact_share" -> (r.exactEvaluations.toDouble / math.max(1, r.valuateCalls), "ratio"),
      "valuator.estimate_ms_p50" -> (quantile(r.estimateNs.map(_ / 1e6).toSeq, 0.5), "ms"),
      "valuator.estimate_s" -> (valuateSelf, "s"),
      "engine.explored" -> (o.explored.toDouble, "count"),
      "engine.pruned" -> (o.pruned.toDouble, "count"),
      "engine.prune_ratio" -> (o.pruned.toDouble / math.max(1, o.explored), "ratio"),
      "engine.skyline_size" -> (o.skyline.toDouble, "count"),
      "engine.self_s" -> (r.selfSec("engine.search"), "s"),
      "engine.gen_s" -> (o.genSec, "s"),
    )
  }

  /** Prints the layer report and the workload's distinct paths so far, and
    * writes the log, the paths and the spans under `args.out`.
    */
  private def writeOut(all: Vector[Outcome], summary: String): Unit = {
    if (args.trace) {
      val o = all.head
      val m = layers(o)
      def row(name: String, s: Double): Unit = say(f"  $name%-22s $s%9.3f s ${100 * s / o.genSec}%6.1f%%")
      say(f"layer report, traced search ${o.search} (gen ${o.genSec}%.3f s):")
      row("engine (self)", m("engine.self_s")._1)
      row("valuator (self)", m("valuator.estimate_s")._1)
      row("universal.collect", m("universal.collect_s")._1)
      row("ml.fit", m("ml.fit_s")._1)
      row("task (self)", m("task.self_s")._1)
      row("space.neighbors", m("space.neighbors_s")._1)
      row("space.backStart", m("space.backstart_s")._1)
      row("universal.rowCount", m("universal.rowcount_s")._1)
    }
    Files.createDirectories(args.out)
    // Every run in this output directory appends its searches' paths, so the
    // count covers all runs of the workload made here.
    val pathsFile = args.out.resolve(s"${w.name}.paths")
    Files.write(pathsFile, all.map(_.path + "\n").mkString.getBytes(StandardCharsets.UTF_8),
      StandardOpenOption.CREATE, StandardOpenOption.APPEND)
    val known = Files.readAllLines(pathsFile).asScala
    say(s"${w.name}: ${known.distinct.size} distinct path(s) in ${known.size} search(es) in ${args.out}")
    val tag = s"${w.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}"
    Files.write(args.out.resolve(s"$tag.log"), (log.toString + summary + "\n").getBytes(StandardCharsets.UTF_8))
    if (args.trace) {
      val lines = all.iterator.flatMap(_.rec.spans).map { s =>
        s"""{"search": ${s.search}, "id": ${s.id}, "parent": ${s.parent}, "name": "${s.name}", """ +
          s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "child_ns": ${s.childNs}}"""
      }
      Files.write(args.out.resolve(s"$tag.spans.jsonl"), lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
    }
  }
}
