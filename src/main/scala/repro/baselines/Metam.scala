package repro.baselines

import repro.core.{TabularTask, UniversalTable}
import repro.lake.LakeTable

/** METAM [Galhotra et al., ICDE'23] — goal-oriented data discovery: greedily
  * join the candidate table that most improves a single task utility, until
  * no candidate helps. METAM-MO is the paper's extension folding multiple
  * measures into one linear weighted utility.
  *
  * The candidates are the lake's key-sharing aux tables. D_U already
  * left-joins each of them onto the base, so every augmented table is a
  * projection of D_U's driver copy over all its rows. Utilities are the task's
  * *normalized minimized* measures, so "improves" means the utility value
  * decreases.
  */
object Metam {

  /** Single-measure METAM. `utility` is a normalized measure name ("acc",
    * "f1", "mse", ...). Returns the augmented table's attributes: the base's,
    * then each joined aux table's in join order.
    */
  def run(u: UniversalTable, task: TabularTask, utility: String): Vector[String] =
    greedy(u, task, raw => task.normalize(utility, raw))

  /** METAM-MO: equally weighted sum of all the task's measures. */
  def runMO(u: UniversalTable, task: TabularTask): Vector[String] =
    greedy(u, task, raw =>
      task.measureNames.map(m => (1.0 / task.measureNames.size) * task.normalize(m, raw)).sum)

  private def greedy(u: UniversalTable, task: TabularTask,
                     score: Map[String, Double] => Double): Vector[String] = {
    val lake = task.lake
    def evalScore(attrs: Vector[String]): Option[Double] =
      task.evaluate(u.project(attrs)).map(r => score(r.raw))
    // join the best remaining candidate while it improves the score
    def grow(current: Vector[String], currentScore: Double, remaining: Seq[LakeTable]): Vector[String] = {
      val scored = remaining.flatMap(t => evalScore(current ++ lake.attrsOf(t)).map(t -> _))
      if (scored.isEmpty) current
      else {
        val (best, s) = scored.minBy(_._2)
        if (s < currentScore - 1e-9) grow(current ++ lake.attrsOf(best), s, remaining.filterNot(_ eq best))
        else current
      }
    }
    val base = lake.attrsOf(lake.base)
    grow(base, evalScore(base).getOrElse(Double.MaxValue), lake.aux)
  }
}
