package repro.bench

import java.nio.file.{Files, Paths}
import repro.SparkSpec
import repro.core.{Runner, State, TabularSpace, TabularTask, Universal}

/** Times exact state valuations, the layer between the search and the
  * model fit: `TabularSpace.evaluate` per state, and the fit inside it
  * (`raw("train")`). avocado (Ridge) and mental (GBM) at SF 0.1, on 60
  * states within two bit flips of s_U (a seeded sample of the admissible
  * one- and two-flip reducts), 5 warm-up and 5 timed repetitions. Every
  * repetition uses a fresh space, so no evaluation is served from its
  * cache. A repetition's non-fit time is its evaluate time less its fit
  * time, so the fit's run-to-run noise stays out of the non-fit layer.
  * Per state it keeps each layer's median over the timed repetitions, and
  * it writes every state's figures and their quartiles to
  * `BENCH_eval.json` in the working directory.
  *
  * Run: `sbt "bench/testOnly repro.bench.EvalBench"`.
  */
class EvalBench extends SparkSpec {
  import EvalBench.Timing

  private val sf = 0.1
  private val nStates = 60
  private val warmUp = 5
  private val timed = 5

  private def median(v: Seq[Double]): Double = quantile(v, 0.5)

  private def measure(name: String): Vector[Timing] = {
    val lake = Runner.lakeByName(spark, name, sf)
    val uni = Universal.build(lake)
    val task = TabularTask.forLake(lake)
    val probe = new TabularSpace(uni, task)
    val full = probe.full
    val w = full.width
    val candidates = (0 until w).map(full.clear) ++
      (for (i <- 0 until w; j <- i + 1 until w) yield full.clear(i).clear(j))
    val states = new scala.util.Random(16).shuffle(candidates.filter(probe.admissible)).take(nStates).toVector

    val runs = (0 until warmUp + timed).map { _ =>
      val space = new TabularSpace(uni, task)
      states.map { s =>
        val t0 = System.nanoTime()
        val r = space.evaluate(s).getOrElse(fail(s"$name: state $s is unusable"))
        ((System.nanoTime() - t0) / 1e6, r.raw("train") * 1e3, r.rows)
      }
    }.drop(warmUp)
    states.indices.map { i =>
      val rs = runs.map(_(i))
      Timing(states(i), rs.head._3, median(rs.map(_._1)), median(rs.map(_._2)), median(rs.map(r => r._1 - r._2)))
    }.toVector
  }

  private def quartiles(v: Seq[Double]): String =
    Seq(0.25, 0.5, 0.75).map(q => f"${quantile(v, q)}%.3f").mkString("[", ", ", "]")

  private def json(name: String, ts: Vector[Timing]): String = {
    val states = ts.map(t =>
      f"""      {"state": "${t.state}", "rows": ${t.rows}, "evaluate_ms": ${t.evaluateMs}%.3f, "fit_ms": ${t.fitMs}%.3f, "nonfit_ms": ${t.nonfitMs}%.3f}""")
    s"""  "$name": {
       |    "evaluate_ms_quartiles": ${quartiles(ts.map(_.evaluateMs))},
       |    "fit_ms_quartiles": ${quartiles(ts.map(_.fitMs))},
       |    "nonfit_ms_quartiles": ${quartiles(ts.map(_.nonfitMs))},
       |    "states": [
       |${states.mkString(",\n")}
       |    ]
       |  }""".stripMargin
  }

  test("exact valuation time per state, avocado and mental at SF 0.1") {
    val results = Vector("avocado", "mental").map(n => n -> measure(n))
    results.foreach { case (n, ts) =>
      println(s"$n: evaluate ms ${quartiles(ts.map(_.evaluateMs))}, fit ms ${quartiles(ts.map(_.fitMs))}, " +
        s"non-fit ms ${quartiles(ts.map(_.nonfitMs))} (quartiles over ${ts.size} states)")
    }
    val body = s"""{
       |  "sf": $sf, "states": $nStates, "warm_up": $warmUp, "timed": $timed,
       |${results.map { case (n, ts) => json(n, ts) }.mkString(",\n")}
       |}
       |""".stripMargin
    Files.write(Paths.get("BENCH_eval.json"), body.getBytes("UTF-8"))
    assert(results.forall(_._2.size == nStates))
  }
}

private object EvalBench {
  final case class Timing(state: State, rows: Int, evaluateMs: Double, fitMs: Double, nonfitMs: Double)
}
