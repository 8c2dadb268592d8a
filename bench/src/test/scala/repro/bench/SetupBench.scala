package repro.bench

import java.lang.management.ManagementFactory
import java.lang.ref.Reference
import java.nio.file.{Files, Paths}
import repro.SparkSpec
import repro.core.{Runner, TabularTask, Universal}

/** Times a Table comparison's set-up, layer by layer, on each of the four
  * Table lakes at SF 0.1: lake generation (`Runner.lakeByName`),
  * `Universal.build`, and the evaluation of s_U on D_U's driver copy (the
  * one evaluation that calibrates the task and gives the Original row).
  * It also reads the heap each of the first two layers retains: the heap
  * used after a forced GC (two `System.gc()` calls) before and after
  * generating the lake (`lake_mb`), and after building its D_U
  * (`build_mb`), with the lake and the D_U still referenced; the forced
  * GCs fall outside the timed layers. The lakes take turns: 3 warm-up
  * rounds, then 10 timed ones. It prints and writes each layer's median
  * and quartiles, in ms or MB, to `BENCH_setup.json` in the working
  * directory.
  *
  * Run: `sbt "bench/testOnly repro.bench.SetupBench"`.
  */
class SetupBench extends SparkSpec {

  private val sf = 0.1
  private val warmUp = 3
  private val timed = 10
  private val lakes = Vector("movie", "house", "avocado", "mental")
  private val layers = Vector("gen_ms", "build_ms", "eval_ms", "lake_mb", "build_mb")

  private def heapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  /** One set-up of a lake: each layer's time in ms, then the heap the lake
    * and its D_U retain in MB, in `layers` order.
    */
  private def setup(name: String): Vector[Double] = {
    val h0 = heapMb()
    val t0 = System.nanoTime()
    val lake = Runner.lakeByName(spark, name, sf)
    val t1 = System.nanoTime()
    val h1 = heapMb()
    val t2 = System.nanoTime()
    val u = Universal.build(lake)
    val t3 = System.nanoTime()
    val h2 = heapMb()
    val t4 = System.nanoTime()
    TabularTask.forLake(lake).evaluate(u.driverCopy).getOrElse(fail(s"$name: s_U is unusable"))
    val t5 = System.nanoTime()
    Reference.reachabilityFence(lake)
    Reference.reachabilityFence(u)
    Vector(t1 - t0, t3 - t2, t5 - t4).map(_ / 1e6) ++ Vector(h1 - h0, h2 - h1)
  }

  test("set-up time and retained heap per layer on the four Table lakes at SF 0.1") {
    (0 until warmUp).foreach(_ => lakes.foreach(setup))
    val runs = (0 until timed).map(_ => lakes.map(setup))
    val results = lakes.indices.map { l =>
      lakes(l) -> layers.indices.map(j => Seq(0.25, 0.5, 0.75).map(quantile(runs.map(_(l)(j)), _)))
    }
    results.foreach { case (n, qs) =>
      println(n + ": " + layers.zip(qs).map { case (layer, q) => f"$layer ${q(1)}%.2f [${q(0)}%.2f, ${q(2)}%.2f]" }.mkString(", "))
    }
    val body = results.map { case (n, qs) =>
      layers.zip(qs).map { case (layer, q) =>
        f""""$layer": {"median": ${q(1)}%.3f, "q1": ${q(0)}%.3f, "q3": ${q(2)}%.3f}"""
      }.mkString(s"""  "$n": {""", ", ", "}")
    }.mkString(s"""{\n  "sf": $sf, "warm_up": $warmUp, "timed": $timed,\n""", ",\n", "\n}\n")
    Files.write(Paths.get("BENCH_setup.json"), body.getBytes("UTF-8"))
    assert(results.forall(_._2.forall(_.forall(_ > 0))))
  }
}
