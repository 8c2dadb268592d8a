package repro

import org.apache.spark.sql.functions.col
import org.scalatest.Assertions._
import repro.core.{EvalResult, Runner, State, TabularTask, Universal, UniversalTable}
import repro.lake.TabularLake
import repro.ml.Frame

/** The Table lakes at SF 0.01 as the suites share them, each part built
  * on first use and at most once per JVM.
  */
object TableLakes {

  /** A Table lake, its D_U, and its task calibrated on s_U evaluated from
    * the driver copy, as `Runner.tabularComparison` calibrates. A suite
    * makes its own `TabularSpace`, since a space caches exact results.
    */
  final class Fixture private[TableLakes] (name: String) {
    lazy val lake: TabularLake = Runner.lakeByName(SparkSpec.shared, name, 0.01)
    lazy val uni: UniversalTable = Universal.build(lake)
    lazy val task: TabularTask = TabularTask.forLake(lake).calibrated(TabularTask.forLake(lake).evaluate(uni.driverCopy).get)

    /** D_U as Spark's reference plan gives it: `Frame.collect` of `uni.df`. */
    lazy val reference: Frame = Frame.collect(uni.df, uni.key, uni.target, uni.layout.attrs)

    /** Each state's dataset as Spark's reference plan selects it, what
      * `Frame.collect` gives for `uni.materialize(s)`, from one Spark job
      * for all the states: the key and each state's row predicate over
      * `uni.df`. A state's `Frame` is [[reference]]'s rows at the keys its
      * predicate selects, in key order, and the state's columns.
      */
    def referenceFrames(states: Seq[State]): Seq[Frame] = {
      val preds = states.zipWithIndex.map { case (s, i) => uni.rowPredicate(s).as(s"p$i") }
      val selected = uni.df.select(col(uni.key) +: preds: _*).collect()
      val ref = reference
      states.zipWithIndex.map { case (s, i) =>
        val rows = selected.filter(_.getBoolean(i + 1)).map(r => java.util.Arrays.binarySearch(ref.keys, r.getLong(0))).sorted
        val attrs = uni.layout.attrsOf(s)
        Frame(rows.map(ref.keys), attrs, attrs.map(a => rows.map(ref.cols(ref.names.indexOf(a)))).toArray, rows.map(ref.y))
      }
    }
  }

  private val fixtures: Map[String, Fixture] =
    TabularTask.Specs.map(s => s.lake.name -> new Fixture(s.lake.name)).toMap

  def apply(name: String): Fixture = fixtures(name)

  /** Two frames hold the same keys, names, and label and cell bits. */
  def assertSameFrame(what: String, a: Frame, b: Frame): Unit = {
    def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    assert(a.keys.toSeq == b.keys.toSeq, s"$what: keys differ")
    assert(a.names == b.names, s"$what: names differ")
    assert(bits(a.y) == bits(b.y), s"$what: labels differ")
    a.names.indices.foreach(j => assert(bits(a.cols(j)) == bits(b.cols(j)), s"$what: ${a.names(j)} differs"))
  }

  /** Two evaluations of one dataset are the same apart from the wall-clock
    * `train` time: the same raw-metric bits and norm bits but `train`'s,
    * and the same size.
    */
  def assertSameEval(task: TabularTask, what: String, a: EvalResult, b: EvalResult): Unit = {
    def raw(r: EvalResult): Map[String, Long] =
      (r.raw - "train").map { case (k, v) => k -> java.lang.Double.doubleToLongBits(v) }
    val train = task.measureNames.indexOf("train")
    def norm(r: EvalResult): Seq[Long] =
      r.norm.indices.filter(_ != train).map(i => java.lang.Double.doubleToLongBits(r.norm(i)))
    assert(raw(a) == raw(b), s"$what: raw metrics differ: ${a.raw} vs ${b.raw}")
    assert(norm(a) == norm(b), s"$what: norm differs")
    assert((a.rows, a.cols) == (b.rows, b.cols), s"$what: size differs")
  }
}
