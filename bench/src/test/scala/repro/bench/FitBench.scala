package repro.bench

import java.nio.file.{Files, Paths}
import repro.SparkSpec
import repro.core.{Runner, Universal}
import repro.ml.{GBMClassifier, MOGBM, RandomForest}
import scala.util.Random

/** Times the tree ensembles' fits through their public APIs, with the
  * hyperparameters the system fits them with:
  *  - `GBMClassifier(30, 4)` on mental's s_U train split at SF 0.1, the
  *    exact valuation of the T4 task (6,400 × 19);
  *  - `RandomForest(30, 8, 3)` on house's s_U train split at SF 0.1, the
  *    exact valuation of the T2 task;
  *  - a 4-output `MOGBM(40, 3, 2)` on 45 seeded records shaped like the
  *    surrogate's (31 state bits and 2 size fractions; outputs in (0, 1]).
  *
  * Each fit runs 10 warm-up and 40 timed times in one JVM. It prints and
  * writes each fit's median and quartiles in ms to `BENCH_fit.json` in the
  * working directory.
  *
  * Run: `sbt "bench/testOnly repro.bench.FitBench"`.
  */
class FitBench extends SparkSpec {

  private val sf = 0.1
  private val warmUp = 10
  private val timed = 40

  /** s_U's train split of a Table lake, mean-imputed, as `TabularTask.evaluate` fits it. */
  private def trainSplit(name: String): (Array[Array[Double]], Array[Double]) = {
    val uni = Universal.build(Runner.lakeByName(spark, name, sf))
    val data = uni.driverCopy
    val train = data.keys.indices.filter(data.keys(_) % 5 != 0).toArray
    (data.imputedRows(train, data.columnMeans(train)), train.map(data.y))
  }

  private def surrogateRecords(): (Array[Array[Double]], Array[Array[Double]]) = {
    val rng = new Random(45)
    val x = Array.fill(45)(Array.tabulate(33)(j => if (j < 31) rng.nextInt(2).toDouble else rng.nextDouble()))
    val ys = x.map(r => Array.tabulate(4)(o =>
      math.min(1.0, math.max(1e-3, 0.2 * r(o) + 0.1 * r(o + 4) + 0.5 * r(31 + o % 2) + 0.1 * rng.nextDouble()))))
    (x, ys)
  }

  /** Median and quartiles, in ms, of the timed runs of `fit`. */
  private def time(fit: () => Unit): Seq[Double] = {
    (0 until warmUp).foreach(_ => fit())
    val ms = (0 until timed).map { _ =>
      val t0 = System.nanoTime()
      fit()
      (System.nanoTime() - t0) / 1e6
    }
    Seq(0.25, 0.5, 0.75).map(quantile(ms, _))
  }

  test("tree ensemble fit time: mental GBM, house RF, surrogate MO-GBM") {
    val (xm, ym) = trainSplit("mental")
    val (xh, yh) = trainSplit("house")
    val (xs, ys) = surrogateRecords()
    val results = Vector(
      (s"mental GBMClassifier(30, 4), ${xm.length}x${xm(0).length}",
        time(() => { new GBMClassifier(nTrees = 30, maxDepth = 4).fit(xm, ym); () })),
      (s"house RandomForest(30, 8, 3), ${xh.length}x${xh(0).length}",
        time(() => { new RandomForest(30, 8, 3).fit(xh, yh); () })),
      (s"surrogate MOGBM(40, 3, 2), 4 outputs, ${xs.length}x${xs(0).length}",
        time(() => { new MOGBM(nOutputs = 4, nTrees = 40, maxDepth = 3, minLeaf = 2).fit(xs, ys); () })))
    results.foreach { case (name, q) => println(f"$name: median ${q(1)}%.3f ms [${q(0)}%.3f, ${q(2)}%.3f]") }
    val body = results.map { case (name, q) =>
      f"""  "$name": {"median_ms": ${q(1)}%.3f, "q1_ms": ${q(0)}%.3f, "q3_ms": ${q(2)}%.3f}"""
    }.mkString(s"""{\n  "sf": $sf, "warm_up": $warmUp, "timed": $timed,\n""", ",\n", "\n}\n")
    Files.write(Paths.get("BENCH_fit.json"), body.getBytes("UTF-8"))
    assert(results.forall(_._2.forall(_ > 0)))
  }
}
