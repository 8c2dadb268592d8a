package repro.lake

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.apache.spark.sql.Row
import repro.SparkSpec
import repro.Oracle
import repro.core.Runner

class DataLakeSpec extends SparkSpec {

  private lazy val movie = Runner.lakeByName(spark, "movie", 0.01)
  private lazy val house = Runner.lakeByName(spark, "house", 0.01)

  test("base table has key, target and segment attrs") {
    val cols = movie.base.df.columns.toSet
    assert(cols.contains("id") && cols.contains("target"))
    assert(movie.segmentAttrs.forall(cols.contains))
  }

  test("base covers every id exactly once") {
    val n = movie.base.df.count()
    assert(movie.base.df.select("id").distinct().count() == n)
  }

  test("row count follows rowsAt scaling") {
    assert(movie.base.df.count() == DataLake.rowsAt(3732, 0.01))
  }

  test("rowsAt clamps into [200, 8000]") {
    assert(DataLake.rowsAt(100, 0.001) == 200)
    assert(DataLake.rowsAt(1000000, 1.0) == 8000)
    assert(DataLake.rowsAt(3732, 0.1) == 3732)
  }

  test("aux tables are joinable on the key and have partial coverage") {
    movie.aux.foreach { t =>
      assert(t.df.columns.contains("id"))
      assert(t.df.count() <= movie.base.df.count())
    }
    assert(movie.aux.exists(t => t.df.count() < movie.base.df.count()))
  }

  test("informative and noise attrs are scattered over the sources") {
    val all = movie.featureAttrs.toSet
    assert(movie.informativeAttrs.subsetOf(all))
    assert(movie.noiseAttrs.subsetOf(all))
  }

  test("distractor tables are not joinable on the lake key") {
    movie.distractors.foreach(t => assert(!t.df.columns.contains("id")))
  }

  test("classification lakes have 0/1 targets") {
    val vals = house.base.df.select("target").distinct().collect().map(_.getDouble(0)).toSet
    assert(vals == Set(0.0, 1.0))
  }

  test("regression lake target is continuous") {
    val distinct = movie.base.df.select("target").distinct().count()
    assert(distinct > 50)
  }

  test("generation is deterministic") {
    val a = Runner.lakeByName(spark, "movie", 0.01).base.df.collect().map(_.toString).sorted.toSeq
    val b = Runner.lakeByName(spark, "movie", 0.01).base.df.collect().map(_.toString).sorted.toSeq
    assert(a == b)
  }

  test("house lake carries more attributes than movie lake") {
    assert(house.featureAttrs.size > movie.featureAttrs.size)
  }

  test("all four lakes build at test scale") {
    Seq(Runner.lakeByName(spark, "movie", 0.01), Runner.lakeByName(spark, "house", 0.01),
      Runner.lakeByName(spark, "avocado", 0.01), Runner.lakeByName(spark, "mental", 0.01)).foreach { l =>
      assert(l.base.df.count() >= 200)
      assert(l.aux.nonEmpty && l.distractors.nonEmpty)
    }
  }

  test("corpusStats adds up tables, columns and rows") {
    val (t, c, r) = DataLake.corpusStats(Seq(movie))
    val tables = movie.allSources ++ movie.distractors
    assert(t == tables.size)
    assert(c == tables.map(_.df.columns.length).sum)
    assert(r == tables.map(_.df.count()).sum)
  }

  test("oracle: base inner-join aux1 matches DuckDB") {
    val aux1 = movie.aux.head
    val joined = movie.base.df.select("id", "target")
      .join(aux1.df.select("id"), Seq("id"), "inner")
      .selectExpr("cast(id as long) as id", "cast(target as double) as target")
    Oracle.assertEquivalent(
      joined,
      s"""SELECT CAST(b.id AS BIGINT) AS id, CAST(b.target AS DOUBLE) AS target
         |FROM base b JOIN aux1 a ON b.id = a.id""".stripMargin,
      "base" -> movie.base.df.select("id", "target"),
      "aux1" -> aux1.df.select("id"))
  }

  test("oracle: left-outer join null pattern matches DuckDB") {
    val aux1 = movie.aux.head
    val firstFeat = aux1.df.columns.filterNot(_ == "id").head
    val joined = movie.base.df.select("id")
      .join(aux1.df.select("id", firstFeat), Seq("id"), "left_outer")
      .selectExpr("cast(id as long) as id", s"cast($firstFeat as double) as v")
    Oracle.assertEquivalent(
      joined,
      s"""SELECT CAST(b.id AS BIGINT) AS id, CAST(a.$firstFeat AS DOUBLE) AS v
         |FROM base b LEFT OUTER JOIN aux1 a ON b.id = a.id""".stripMargin,
      "base" -> movie.base.df.select("id"),
      "aux1" -> aux1.df.select("id", firstFeat))
  }

  test("every generated table keeps its schema, partitions and cell bits") {
    val lakes = Seq("movie" -> 0.01, "house" -> 0.01, "avocado" -> 0.01, "mental" -> 0.01, "mental" -> 0.1)
    val actual = lakes.flatMap { case (name, sf) =>
      val l = Runner.lakeByName(spark, name, sf)
      (l.allSources ++ l.distractors).map { t =>
        val parts = t.df.rdd.mapPartitionsWithIndex((i, rows) => Iterator(i -> DataLakeSpec.digest(rows)))
          .collect().sortBy(_._1).map(_._2).toSeq
        s"$name@$sf/${t.name}" -> (t.df.schema.toDDL, parts)
      }
    }
    assert(actual.map(_._1) == DataLakeSpec.layout.map(_._1))
    actual.zip(DataLakeSpec.layout).foreach { case ((k, (ddl, parts)), (_, (eDdl, eParts))) =>
      assert(ddl == eDdl, s"$k: schema")
      assert(parts.size == eParts.size, s"$k: partition count")
      parts.zip(eParts).zipWithIndex.foreach { case ((a, e), i) => assert(a == e, s"$k: partition $i") }
    }
  }
}

object DataLakeSpec {

  /** SHA-256 over a partition's rows in order: each cell's raw bits, a Long
    * as itself and a Double as `doubleToRawLongBits`.
    */
  def digest(rows: Iterator[Row]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = ByteBuffer.allocate(8)
    rows.foreach { r =>
      var j = 0
      while (j < r.length) {
        buf.clear()
        r.get(j) match {
          case v: Long   => buf.putLong(v)
          case v: Double => buf.putLong(java.lang.Double.doubleToRawLongBits(v))
          case v         => throw new IllegalArgumentException(s"unexpected cell $v")
        }
        md.update(buf.array())
        j += 1
      }
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  // Recorded, not derived: each table's schema, then one digest per
  // partition in partition order. Any change is a change of what every
  // reader of the lake sees.
  val layout: Seq[(String, (String, Seq[String]))] = Seq(
    "movie@0.01/movie_base" -> ("id BIGINT NOT NULL,target DOUBLE NOT NULL,seg_quality DOUBLE NOT NULL,seg_region DOUBLE NOT NULL,inf_1 DOUBLE NOT NULL,inf_2 DOUBLE NOT NULL",
      Seq("05537c4c0c6c31cdf430c46b61804fba175155e7aa21f7f206782929a41030ca",
          "49f38c50b925807249ccf87a92bd61036fe77285602c0ca2f1e53b6a967a6395",
          "8fb110f53845a7d903348ac13752c53de1a1a1c18be6d2a65d0e917558220a90",
          "4df408d246414bce47e03b941e44a125b2d484141d7dad3b3641012d5a520bcb")),
    "movie@0.01/movie_aux1" -> ("id BIGINT NOT NULL,inf_3 DOUBLE NOT NULL,inf_5 DOUBLE NOT NULL,nz_1 DOUBLE NOT NULL,nz_4 DOUBLE NOT NULL",
      Seq("6fba929f0330266c1b7286b132b508ee19828ee42234ade0ee2a786b7c9b232c",
          "f7f07952fd61999659748fba46b4de51586f29ddc66a1ae27e5838de52d138e6",
          "62c8523800fbf81dd65572a5e154b05af6fb71f8b7b032e388a7e093487b9f48",
          "36c88833f5bfc48e3429630ccaa94958ef281aeacb0a8e8a8c4d80db71203705")),
    "movie@0.01/movie_aux2" -> ("id BIGINT NOT NULL,inf_4 DOUBLE NOT NULL,nz_2 DOUBLE NOT NULL",
      Seq("0467bfb38284146c34b6fd304030cd7efbfd421eaf4027377ca101d672089fb5",
          "521ef286c3e6fb673022a08c4bf7bcbc0357fb21227ea9ea35788e766cd216b7",
          "8d14baebc6566deeb2ab936aece00df1df621abc7f7e41c37f78a86e93c55dbb",
          "36345a1d615516579b1bc52f96a235e4f78624eff6971ae3283b3c27e6351a06")),
    "movie@0.01/movie_junk" -> ("id BIGINT NOT NULL,nz_3 DOUBLE NOT NULL",
      Seq("3c1c564b849a02714711a331edbd7425697ca28be3c1e4b5b05dd10d5dda567d",
          "6c45c27fab109d6a0ab0aed984d831052a1e7123bffffa847c56d0bdf291fbce",
          "fbbbc8b56f2c70b2fca9228d6596cca96c28ce428eedfa875c573ca44a829b52",
          "8b5e87b49fe8358b1ff2d84c0b72af5b103c8a356ead58c35548efb1ac380094")),
    "movie@0.01/movie_distractor1" -> ("code BIGINT NOT NULL,movie_d1_c1 DOUBLE NOT NULL,movie_d1_c2 DOUBLE NOT NULL",
      Seq("935f7f68b2cb151b5779a5dcf0325d7701f6b2710bd7e11e793995b374705035",
          "dbd6c6004cf0714fd1fc9f982e4886966a0194bee21e547f04c938faddeca170")),
    "movie@0.01/movie_distractor2" -> ("code BIGINT NOT NULL,movie_d2_c1 DOUBLE NOT NULL,movie_d2_c2 DOUBLE NOT NULL,movie_d2_c3 DOUBLE NOT NULL",
      Seq("d91cdcd86037d1c67c97efe79f886643b0a4827adeb51fdb75adc40d6ce3ceec",
          "950208692c52e48a4eb23b082527f67510edd61181edf984601773060ed8700e")),
    "movie@0.01/movie_distractor3" -> ("code BIGINT NOT NULL,movie_d3_c1 DOUBLE NOT NULL,movie_d3_c2 DOUBLE NOT NULL",
      Seq("11f519bed4d82b72bf83186434a0ab6fc075e68d2f918596f35a1a3420e29bff",
          "3a7433db4ed80badc838f9192603faf05f9a4b48ed15f52a15cc3ad535498620")),
    "house@0.01/house_base" -> ("id BIGINT NOT NULL,target DOUBLE NOT NULL,seg_quality DOUBLE NOT NULL,seg_region DOUBLE NOT NULL,inf_1 DOUBLE NOT NULL,inf_2 DOUBLE NOT NULL",
      Seq("4a9e6ab1ddba8065fb609304e9fcbd94b0d7f069107c81bc87ff898accc2eff0",
          "7aa9c372d2a98e4db726ae057986515177006e5877aaaa733546c1453920d1a6",
          "e87c200869bbcc1728cde43d5afad73b33d931b6f7cdcc6b8f7203c509ba117a",
          "00c390b4b62cb781b310c9170290ea6eae59187fbdecef45b95fc5a28ef051c3")),
    "house@0.01/house_aux1" -> ("id BIGINT NOT NULL,inf_3 DOUBLE NOT NULL,inf_5 DOUBLE NOT NULL,inf_7 DOUBLE NOT NULL,inf_9 DOUBLE NOT NULL,nz_1 DOUBLE NOT NULL,nz_4 DOUBLE NOT NULL,nz_7 DOUBLE NOT NULL,nz_10 DOUBLE NOT NULL",
      Seq("45586851e6d19fabba41390bb535f57a0a11619a6179269e2d405268906fc4f7",
          "f2bd34069f27552ef7106ef12da40efb41f562bd92adb8bcec08980faf3de25e",
          "af62e160de755a1cfaf47f56d9aae7c29e6a7e842a7698047e8f0c17348fa4b2",
          "0c0ef9e00ae721a986a3966f92d3d06e806a60ffa5876841982e9e71e285accf")),
    "house@0.01/house_aux2" -> ("id BIGINT NOT NULL,inf_4 DOUBLE NOT NULL,inf_6 DOUBLE NOT NULL,inf_8 DOUBLE NOT NULL,inf_10 DOUBLE NOT NULL,nz_2 DOUBLE NOT NULL,nz_5 DOUBLE NOT NULL,nz_8 DOUBLE NOT NULL,nz_11 DOUBLE NOT NULL",
      Seq("04568b07605d00ee07fa45496bbdfc9bc2b452a0c52763edadae234469454a65",
          "df252d8f2da439c4202e342ab7cbe7e9f831735a590931bb885987f18e50dcbd",
          "4c2687f52f01f3ea673a1701c0fb62730d10543a79ae30c6de39bd611b433c7b",
          "058a40cfc967230607dacda83c41d573fee22dbff21b08b1e152bfbbb9168588")),
    "house@0.01/house_junk" -> ("id BIGINT NOT NULL,nz_3 DOUBLE NOT NULL,nz_6 DOUBLE NOT NULL,nz_9 DOUBLE NOT NULL,nz_12 DOUBLE NOT NULL",
      Seq("d38d5fdff6af1e0bdf76903e00742376bf5d0a34bc55df84a039204668d4d9c2",
          "f2360a0e868d82195ea18676dd55b633de1fb528af9c5a864e65fd3d4c740b20",
          "bfa27b25351151b0cc73223ffafba2d8db9c07b622707f201fffc72a2e5b1221",
          "09982aa3a0d0ddc1489c456e9199e0bc11dc4270f63cadd9540e6fa8d56439a3")),
    "house@0.01/house_distractor1" -> ("code BIGINT NOT NULL,house_d1_c1 DOUBLE NOT NULL,house_d1_c2 DOUBLE NOT NULL",
      Seq("d9245919b05d9dd69d643e59782e3d808a3ce68d84b20593341190dd5d915a29",
          "2d76db3c9510634cd8e9d0b7aa1311a0e69825c67191b9775157ad9cfaa8d9e0")),
    "house@0.01/house_distractor2" -> ("code BIGINT NOT NULL,house_d2_c1 DOUBLE NOT NULL,house_d2_c2 DOUBLE NOT NULL",
      Seq("77ae11b95117a88d201074e3858d94d694dde515bf8fdf0ae98888cc41aea8aa",
          "34ffc811e7cbbc9666df86794de2bde395727ee4afb3f74ab84f34487b3ff7b4")),
    "house@0.01/house_distractor3" -> ("code BIGINT NOT NULL,house_d3_c1 DOUBLE NOT NULL,house_d3_c2 DOUBLE NOT NULL",
      Seq("702fd3f62ff6b3035d2526c254cdb560824c730f512c8b2f18da4fadab575d98",
          "241e33e227b49c8bb2cb9ec4f22166e551e3f731ed764c63c0a32d3a80871e80")),
    "avocado@0.01/avocado_base" -> ("id BIGINT NOT NULL,target DOUBLE NOT NULL,seg_quality DOUBLE NOT NULL,seg_region DOUBLE NOT NULL,inf_1 DOUBLE NOT NULL,inf_2 DOUBLE NOT NULL",
      Seq("cb5ff58412ad2191ba4e1fed772254db5419431b718d75157a3bf3b579cc3e53",
          "40c35d9727e579cc475984eed605641314556f6099a68c200723ac88b4e9736b",
          "87fc818631eeed8170e319b99aae0c38f4d015ba674f5810e63abe8c5af00927",
          "98cdd64793c4b73d009e68147939b05f744606dc417bf39bfc15b67d784b72c3")),
    "avocado@0.01/avocado_aux1" -> ("id BIGINT NOT NULL,inf_3 DOUBLE NOT NULL,inf_5 DOUBLE NOT NULL,nz_1 DOUBLE NOT NULL,nz_4 DOUBLE NOT NULL",
      Seq("d4b21aebe107e851356afa834fd15e2c22e51429f6bd92e155600047e352489a",
          "1bfa6e83b0fb6c5eb8b817741bdac6dc847e79e91bf5ae0bfba74967918dfe76",
          "7c7da8d27c7a035a8c8ee54924391cbb41caa4a014ea384c5cae6e15512a3208",
          "4ff1bad066c4ba2d6f6c9526fa4b6cfe646e9afc1db68de8781bce6916a8acff")),
    "avocado@0.01/avocado_aux2" -> ("id BIGINT NOT NULL,inf_4 DOUBLE NOT NULL,inf_6 DOUBLE NOT NULL,nz_2 DOUBLE NOT NULL",
      Seq("57ed61e143af8b87fb4f7c6ace0a5bd9449ad245d3f7b7bdaa01088434748aa1",
          "bdffeeec88f49122d230ed4f20ea5d43219ea9fa381fb82d49b2aade53e2eec8",
          "6e01f8b93d525507798dc8c94f87b4b6138d10867a79bbb1fd393afb056675ad",
          "a6e7b8ba2dd13556de446de8e3c51f4823e96d6f73cd5d9c23789184e21a2a6d")),
    "avocado@0.01/avocado_junk" -> ("id BIGINT NOT NULL,nz_3 DOUBLE NOT NULL",
      Seq("e21bfb1fde7c62b4704f1b032b5110d9cdb7ec3783ff2aada4d23523bdf80b7d",
          "9d7becb833bebbb9a580186f8585a1d8021747eb9e77f707926e435d2116b845",
          "2250f154a707e347cd232d46f3dd1acf9704c8fae03dc985094272c0a444f47e",
          "445b8c7443e35583db4a547fe0e95b5f471406dbae60af8ea0d69f4c49549eae")),
    "avocado@0.01/avocado_distractor1" -> ("code BIGINT NOT NULL,avocado_d1_c1 DOUBLE NOT NULL,avocado_d1_c2 DOUBLE NOT NULL,avocado_d1_c3 DOUBLE NOT NULL,avocado_d1_c4 DOUBLE NOT NULL",
      Seq("50d5743d7d649399fa45e94c6d8c013e355755e496cb08ed71b8b3ee7282aa6c",
          "634448ffa43546201683eed861efdac0ff1666dbe496257af3f4790783c736c9")),
    "avocado@0.01/avocado_distractor2" -> ("code BIGINT NOT NULL,avocado_d2_c1 DOUBLE NOT NULL,avocado_d2_c2 DOUBLE NOT NULL",
      Seq("e9fbe6329bdad4eff87874faa4a8e8870c2390dbaefa71651d0d3738caa075de",
          "559ec6f1f9f5786dcc60190ad906499271b8492a5ca0592f2801b6e10bc7dd3c")),
    "avocado@0.01/avocado_distractor3" -> ("code BIGINT NOT NULL,avocado_d3_c1 DOUBLE NOT NULL,avocado_d3_c2 DOUBLE NOT NULL,avocado_d3_c3 DOUBLE NOT NULL",
      Seq("5a0a0ba64608d01bbdfbf3ed02e0f07dd3e8ff6ac3e509c7ca03c3add511eaab",
          "6c76ab01522082e1fab4f7b8431b1fba1f9dfbcf35112b36de8c024870726082")),
    "mental@0.01/mental_base" -> ("id BIGINT NOT NULL,target DOUBLE NOT NULL,seg_quality DOUBLE NOT NULL,seg_region DOUBLE NOT NULL,inf_1 DOUBLE NOT NULL,inf_2 DOUBLE NOT NULL",
      Seq("851356289d95ad0bb52960c944724cc6f9e3e171ef72abb5b743d20820617544",
          "5946d252e076edbf8ffa5cb44c38c3b0bda4b4b9c009ab9d94839616f2119122",
          "a6ce9b6969884edf908c6dcaf747b12ee77859204aa26f3757af4be1adac7abe",
          "5d76b28df7db3e797e99a1b0fe0ae59f55128bdb629bf60accd70236a43f367a")),
    "mental@0.01/mental_aux1" -> ("id BIGINT NOT NULL,inf_3 DOUBLE NOT NULL,inf_5 DOUBLE NOT NULL,inf_7 DOUBLE NOT NULL,nz_1 DOUBLE NOT NULL,nz_4 DOUBLE NOT NULL,nz_7 DOUBLE NOT NULL",
      Seq("d4329059f9fe342e2172beb0900216260d0243af695d812b31313711e2b5134d",
          "b408ba0502b68d1213ffc42f8ea88afbc9be8d992067301741b6680ff8cfbb47",
          "ddb3a4a7b922611632fd5d8840cf3fa5ea06c90d1acd23a3235265888c7da79b",
          "9517e92d44699654f93a8040b664f90afbcfa471c0b008f5d45f643ec3b7a66e")),
    "mental@0.01/mental_aux2" -> ("id BIGINT NOT NULL,inf_4 DOUBLE NOT NULL,inf_6 DOUBLE NOT NULL,inf_8 DOUBLE NOT NULL,nz_2 DOUBLE NOT NULL,nz_5 DOUBLE NOT NULL,nz_8 DOUBLE NOT NULL",
      Seq("edbb46225878975fca69c1af2620b3c927b70353fa8e86431001d01ecb7e17d7",
          "2ee54dd8c4f0c2e62be059ef2b3e36ac1a472f0b0e61d88beeb554e4ee143006",
          "0c527d1f380d68d4f07d365468134069a90570ecd3229d5fbd8a11c6c1d60b5b",
          "9de297e6b014a20a935b8c4ebf4772b0c32760d2bdc27e9c02a67f24274ae85d")),
    "mental@0.01/mental_junk" -> ("id BIGINT NOT NULL,nz_3 DOUBLE NOT NULL,nz_6 DOUBLE NOT NULL,nz_9 DOUBLE NOT NULL",
      Seq("a7e8581ab6076ccfbf454fba6969109043713ea6688f975821e32f6986dde8be",
          "8eb560bd6895fbce320de55ce0fe35cbadd6842e365afc89d9298b58ced5dd34",
          "a089f8887428d3f2c646b8a6e4932a7b02ec95185b8d655e8c91f7937aed0e1e",
          "b464adf60c3c4eeba05d96c193268961e94f1cb92b13c5c54b598f86a529a61f")),
    "mental@0.01/mental_distractor1" -> ("code BIGINT NOT NULL,mental_d1_c1 DOUBLE NOT NULL,mental_d1_c2 DOUBLE NOT NULL",
      Seq("db3dbfb220cda24a685435ba51bdaec5e9c208aa5532a19883cb10fcf7edd30f",
          "3d5e38d460fc9f65a0707f9bf12058f755de4592a0fee693ff06c806affd86e3")),
    "mental@0.01/mental_distractor2" -> ("code BIGINT NOT NULL,mental_d2_c1 DOUBLE NOT NULL,mental_d2_c2 DOUBLE NOT NULL,mental_d2_c3 DOUBLE NOT NULL,mental_d2_c4 DOUBLE NOT NULL",
      Seq("f664e4497955aacf1dc0c16ade3151839bb66a8fa2dd5b541d7e11f207781182",
          "75433cab1a7b1a6e78ca646b3fbbae82757c7beff9e6da59a20262f878df8fef")),
    "mental@0.01/mental_distractor3" -> ("code BIGINT NOT NULL,mental_d3_c1 DOUBLE NOT NULL,mental_d3_c2 DOUBLE NOT NULL,mental_d3_c3 DOUBLE NOT NULL",
      Seq("057792f4e6aa59c090a075dbff5df7633f248479454504fe6b1701eafd2e7e3d",
          "0c843a46a525326a223dd80f647f2a04972b4af455474a7c6ab529b547066af8")),
    "mental@0.1/mental_base" -> ("id BIGINT NOT NULL,target DOUBLE NOT NULL,seg_quality DOUBLE NOT NULL,seg_region DOUBLE NOT NULL,inf_1 DOUBLE NOT NULL,inf_2 DOUBLE NOT NULL",
      Seq("851356289d95ad0bb52960c944724cc6f9e3e171ef72abb5b743d20820617544",
          "5946d252e076edbf8ffa5cb44c38c3b0bda4b4b9c009ab9d94839616f2119122",
          "a6ce9b6969884edf908c6dcaf747b12ee77859204aa26f3757af4be1adac7abe",
          "5d76b28df7db3e797e99a1b0fe0ae59f55128bdb629bf60accd70236a43f367a")),
    "mental@0.1/mental_aux1" -> ("id BIGINT NOT NULL,inf_3 DOUBLE NOT NULL,inf_5 DOUBLE NOT NULL,inf_7 DOUBLE NOT NULL,nz_1 DOUBLE NOT NULL,nz_4 DOUBLE NOT NULL,nz_7 DOUBLE NOT NULL",
      Seq("d4329059f9fe342e2172beb0900216260d0243af695d812b31313711e2b5134d",
          "b408ba0502b68d1213ffc42f8ea88afbc9be8d992067301741b6680ff8cfbb47",
          "ddb3a4a7b922611632fd5d8840cf3fa5ea06c90d1acd23a3235265888c7da79b",
          "9517e92d44699654f93a8040b664f90afbcfa471c0b008f5d45f643ec3b7a66e")),
    "mental@0.1/mental_aux2" -> ("id BIGINT NOT NULL,inf_4 DOUBLE NOT NULL,inf_6 DOUBLE NOT NULL,inf_8 DOUBLE NOT NULL,nz_2 DOUBLE NOT NULL,nz_5 DOUBLE NOT NULL,nz_8 DOUBLE NOT NULL",
      Seq("edbb46225878975fca69c1af2620b3c927b70353fa8e86431001d01ecb7e17d7",
          "2ee54dd8c4f0c2e62be059ef2b3e36ac1a472f0b0e61d88beeb554e4ee143006",
          "0c527d1f380d68d4f07d365468134069a90570ecd3229d5fbd8a11c6c1d60b5b",
          "9de297e6b014a20a935b8c4ebf4772b0c32760d2bdc27e9c02a67f24274ae85d")),
    "mental@0.1/mental_junk" -> ("id BIGINT NOT NULL,nz_3 DOUBLE NOT NULL,nz_6 DOUBLE NOT NULL,nz_9 DOUBLE NOT NULL",
      Seq("a7e8581ab6076ccfbf454fba6969109043713ea6688f975821e32f6986dde8be",
          "8eb560bd6895fbce320de55ce0fe35cbadd6842e365afc89d9298b58ced5dd34",
          "a089f8887428d3f2c646b8a6e4932a7b02ec95185b8d655e8c91f7937aed0e1e",
          "b464adf60c3c4eeba05d96c193268961e94f1cb92b13c5c54b598f86a529a61f")),
    "mental@0.1/mental_distractor1" -> ("code BIGINT NOT NULL,mental_d1_c1 DOUBLE NOT NULL,mental_d1_c2 DOUBLE NOT NULL",
      Seq("db3dbfb220cda24a685435ba51bdaec5e9c208aa5532a19883cb10fcf7edd30f",
          "3d5e38d460fc9f65a0707f9bf12058f755de4592a0fee693ff06c806affd86e3")),
    "mental@0.1/mental_distractor2" -> ("code BIGINT NOT NULL,mental_d2_c1 DOUBLE NOT NULL,mental_d2_c2 DOUBLE NOT NULL,mental_d2_c3 DOUBLE NOT NULL,mental_d2_c4 DOUBLE NOT NULL",
      Seq("f664e4497955aacf1dc0c16ade3151839bb66a8fa2dd5b541d7e11f207781182",
          "75433cab1a7b1a6e78ca646b3fbbae82757c7beff9e6da59a20262f878df8fef")),
    "mental@0.1/mental_distractor3" -> ("code BIGINT NOT NULL,mental_d3_c1 DOUBLE NOT NULL,mental_d3_c2 DOUBLE NOT NULL,mental_d3_c3 DOUBLE NOT NULL",
      Seq("057792f4e6aa59c090a075dbff5df7633f248479454504fe6b1701eafd2e7e3d",
          "0c843a46a525326a223dd80f647f2a04972b4af455474a7c6ab529b547066af8")),
  )
}
