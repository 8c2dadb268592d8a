package repro.bench

import java.nio.file.{Files, Paths}
import repro.SparkSpec
import repro.core._
import repro.jobs.TableConfig
import repro.util.Stats

/** Prints the paths of the four MODis variants on the four Table lakes at
  * SF 0.1, under `TableConfig.Tabular` and the surrogate valuator, with no
  * wall-clock time in them: each space reads `train` from the state's size
  * ([[SizedTrain]]) in place of the fit's time, so the search, the
  * surrogate and the pruning see the same vectors on every run. Per search
  * it writes the counters, each skyline entry (bitmap and vector) and the
  * winner's raw metrics but `train` to `PATHS.txt` in the working
  * directory. Doubles print in their shortest round-trip form, so two
  * files are equal byte for byte exactly when every searched value is
  * equal bit for bit: run it in two checkouts and diff.
  *
  * Run: `sbt "bench/testOnly repro.bench.PathProbe"`.
  */
class PathProbe extends SparkSpec {

  private val sf = 0.1
  private val cfg = TableConfig.Tabular
  private val lakes = Vector("movie", "house", "avocado", "mental")

  private def paths(name: String): Vector[String] = {
    val lake = Runner.lakeByName(spark, name, sf)
    val uni = Universal.build(lake)
    val task0 = TabularTask.forLake(lake)
    val sU = task0.evaluate(uni.driverCopy).getOrElse(fail(s"$name: s_U is unusable"))
    val task = task0.calibrated(sU)
    val primaryIdx = task.measureNames.indexOf(Runner.primaryMeasure(name))
    Modis.all.flatMap { m =>
      val space = new SizedTrain(new TabularSpace(uni, task), sU.rows.toDouble * sU.cols)
      val valuator = new SurrogateValuator(space, cfg.bootstrap)
      val r = m.run(space, valuator, cfg)
      val winner = r.bestBy(primaryIdx).flatMap(e => valuator.exact(e._1)).fold("unusable") { e =>
        (e.raw - "train").toSeq.sorted.map { case (k, v) => s"$k=$v" }.mkString(s"rows=${e.rows} cols=${e.cols} ", " ", "")
      }
      (s"$name ${m.name} valuated=${r.valuated} explored=${r.explored} pruned=${r.pruned} skyline=${r.skyline.size}" +:
        r.skyline.map { case (s, p) => s"  $s${p.mkString("(", ",", ")")}" }) :+ s"  winner $winner"
    }
  }

  test("MODis paths on the four Table lakes at SF 0.1, with train read from size") {
    val lines = lakes.flatMap(paths)
    Files.write(Paths.get("PATHS.txt"), lines.mkString("", "\n", "\n").getBytes("UTF-8"))
    println(s"PATHS.txt: ${lines.size} lines")
    assert(lines.count(!_.startsWith(" ")) == lakes.size * Modis.all.size)
  }
}

/** A Table lake's space whose exact vectors read `train` as the state's
  * rows × cols over twice s_U's (`sUCells`), clipped to [1e-3, 1], in place
  * of the fit's wall-clock time; every other entry, and every other answer,
  * is the inner space's.
  */
private final class SizedTrain(inner: TabularSpace, sUCells: Double) extends StateSpace {
  private val train = inner.measures.indexWhere(_.name == "train")
  require(train >= 0, s"${inner.task.lake.name} has no train measure")

  override def layout: BitLayout = inner.layout
  override def measures: Vector[Measure] = inner.measures
  override lazy val backStart: State = inner.backStart
  override def admissible(s: State): Boolean = inner.admissible(s)
  override def rowCountEstimate(s: State): Long = inner.rowCountEstimate(s)
  override def minRows: Int = inner.minRows

  override def evaluate(s: State): Option[EvalResult] = inner.evaluate(s).map { r =>
    val norm = r.norm.clone()
    norm(train) = Stats.clip(r.rows.toDouble * r.cols / (2 * sUCells), 1e-3, 1.0)
    r.copy(norm = norm)
  }
}
