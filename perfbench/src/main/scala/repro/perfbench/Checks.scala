package repro.perfbench

import repro.Oracle
import repro.core._
import scala.util.control.NonFatal

/** Output checks run on every search, outside the timed region. Each returns
  * the reason it failed, so a failure is counted instead of ending the run.
  */
object Checks {

  /** The winner's dataset as Spark materializes it equals DuckDB's
    * projection plus cluster filter over D_U.
    */
  def oracleMatches(u: UniversalTable, s: State): Option[String] = {
    val attrs = u.layout.attrsOf(s)
    val hidden = u.layout.segAttrs.map(u.hiddenCol)
    val select = (s"CAST(${u.key} AS BIGINT) AS ${u.key}" +:
      (u.target +: attrs).map(c => s"CAST($c AS DOUBLE) AS $c")).mkString(", ")
    val where = u.layout.segAttrs.map { seg =>
      val kept = u.layout.clustersOf(s, seg).toSeq.sorted
      if (kept.isEmpty) "FALSE"
      else s"CAST(${u.hiddenCol(seg)} AS INTEGER) IN (${kept.mkString(", ")})"
    }.mkString(" AND ")
    try {
      Oracle.assertEquivalent(u.materialize(s), s"SELECT $select FROM u WHERE $where",
        "u" -> u.df.select(((u.key +: u.target +: attrs) ++ hidden).map(u.df.col): _*))
      None
    } catch {
      case NonFatal(e) =>
        Some("oracle: " + Option(e.getMessage).getOrElse(e.toString).linesIterator.take(3).mkString(" "))
    }
  }

  /** Re-evaluating the winner anew gives the same raw metrics, apart
    * from the wall-clock `train` time.
    */
  def reevaluationMatches(u: UniversalTable, task: TabularTask, s: State,
                          first: EvalResult): Option[String] =
    task.evaluate(u.materialize(s)) match {
      case None => Some("re-evaluation: winner became unusable")
      case Some(again) =>
        val a = first.raw - "train"
        val b = again.raw - "train"
        if (a == b) None else Some(s"re-evaluation: raw metrics differ: $a vs $b")
    }
}
