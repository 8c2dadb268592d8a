package repro.jobs

import repro.core.ModisConfig

/** The search configuration of each Table family, for its jobs and benches. */
object TableConfig {
  /** Tables 4 and 6: the tabular tasks T1–T4. */
  val Tabular: ModisConfig = ModisConfig(n = 150, eps = 0.1, maxl = 6, bootstrap = 20)
  /** Table 5: the graph task T5. */
  val Graph: ModisConfig = ModisConfig(n = 60, eps = 0.1, maxl = 5, bootstrap = 15)
}
