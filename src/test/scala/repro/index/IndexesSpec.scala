package repro.index

import org.apache.spark.sql.functions._
import org.scalatest.funsuite.AnyFunSuite
import repro.{Fixtures, Oracle, SparkSpec}
import repro.nlp.{CorpusGen, Sent}

class IndexesSpec extends AnyFunSuite with SparkSpec {
  import Fixtures._

  private lazy val built: Indexes.Built = {
    import spark.implicits._
    Indexes.build(spark, spark.createDataset(both))
  }

  test("word index holds the paper's Example 3.2 quintuples for 'ate'") {
    val rows = built.word.filter(col("word") === "ate")
      .select("sid", "tid", "lo", "hi", "depth").collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getInt(2), r.getInt(3), r.getInt(4))).toSet
    assert(rows.contains((1L, 1, 0, 12, 0)))
    assert(rows.contains((0L, 1, 0, 16, 0)))
  }

  test("word index holds the Example 3.2 quintuples for 'delicious'") {
    val rows = built.word.filter(col("word") === "delicious")
      .select("sid", "tid", "lo", "hi", "depth").collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getInt(2), r.getInt(3), r.getInt(4))).toSet
    assert(rows == Set((1L, 3, 3, 3, 2), (0L, 9, 9, 9, 3)))
  }

  test("word index holds the Example 3.2 quintuple for 'cream'") {
    val rows = built.word.filter(col("word") === "cream")
      .select("sid", "tid", "lo", "hi", "depth").collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getInt(2), r.getInt(3), r.getInt(4))).toSet
    assert(rows == Set((0L, 5, 2, 9, 1)))
  }

  test("entity index holds the Example 3.2 triples") {
    val rows = built.entity.select("entity", "sid", "lo", "hi").collect()
      .map(r => (r.getString(0), r.getLong(1), r.getInt(2), r.getInt(3))).toSet
    assert(rows.contains(("cheesecake", 1L, 4, 4)))
    assert(rows.contains(("grocery store", 1L, 10, 11)))
    assert(rows.contains(("chocolate ice cream", 0L, 3, 5)))
  }

  test("oracle: word-index lookup equals a DuckDB scan of the token table") {
    Oracle.assertEquivalent(
      built.word.filter(col("word") === "delicious").select("sid", "tid", "lo", "hi", "depth"),
      "SELECT sid, tid, lo, hi, depth FROM toks WHERE word = 'delicious'",
      "toks" -> built.tokens.select("word", "sid", "tid", "lo", "hi", "depth"))
  }

  test("oracle: Section-3 parent-child quintuple join equals the head relation") {
    val w = built.word.select("sid", "tid", "lo", "hi", "depth")
    val pairs = w.alias("p").join(w.alias("c"),
        col("p.sid") === col("c.sid") &&
          col("p.lo") <= col("c.lo") && col("p.hi") >= col("c.hi") &&
          col("p.depth") === col("c.depth") - 1 &&
          col("p.lo") <= col("c.tid") && col("c.tid") <= col("p.hi"))
      .select(col("p.sid").as("sid"), col("p.tid").as("ptid"), col("c.tid").as("ctid"))
    Oracle.assertEquivalent(
      pairs,
      "SELECT sid, head AS ptid, tid AS ctid FROM toks WHERE CAST(head AS INT) >= 0",
      "toks" -> built.tokens.select("sid", "tid", "head"))
  }

  test("oracle: entity index equals a DuckDB group-by over eids") {
    Oracle.assertEquivalent(
      built.entity.select("entity", "sid", "lo", "hi"),
      """SELECT string_agg(word, ' ' ORDER BY CAST(tid AS INT)) AS entity, sid,
        |       MIN(CAST(tid AS INT)) AS lo, MAX(CAST(tid AS INT)) AS hi
        |FROM toks WHERE CAST(eid AS INT) >= 0 GROUP BY sid, eid""".stripMargin,
      "toks" -> built.tokens.select("word", "sid", "tid", "eid"))
  }

  test("PL dataguide: posting of /root/dobj/nn merges 'chocolate' and 'ice' (Ex. 3.3)") {
    val node = built.plNodes.find(_.path == "/root/dobj/nn")
    assert(node.isDefined)
    val words = built.word.filter(col("plId") === node.get.id)
      .select("word").collect().map(_.getString(0)).toSet
    assert(words == Set("chocolate", "ice"))
  }

  test("PL dataguide: /root/dobj posting lists 'cheesecake' and 'cream' (Ex. 3.3)") {
    val node = built.plNodes.find(_.path == "/root/dobj").get
    val rows = built.word.filter(col("plId") === node.id)
      .select("word", "sid", "tid", "lo", "hi", "depth").collect()
      .map(r => (r.getString(0), r.getLong(1), r.getInt(2), r.getInt(3), r.getInt(4), r.getInt(5))).toSet
    assert(rows == Set(("cheesecake", 1L, 4, 2, 11, 1), ("cream", 0L, 5, 2, 9, 1)))
  }

  test("dataguide nodes have unique paths and deterministic ids") {
    assert(built.plNodes.map(_.path).distinct.size == built.plNodes.size)
    assert(built.plNodes.map(_.id) == built.plNodes.indices)
    val again = {
      import spark.implicits._
      Indexes.build(spark, spark.createDataset(both))
    }
    assert(again.plNodes == built.plNodes)
  }

  test("oracle: PL closure table equals the path-prefix relation") {
    import spark.implicits._
    val nodes = built.plNodes.map(n => (n.id, n.path)).toDF("id", "path")
    Oracle.assertEquivalent(
      built.plClosure.select("id", "aid"),
      "SELECT a.id AS id, b.id AS aid FROM nodes a JOIN nodes b " +
        "ON a.path = b.path OR a.path LIKE b.path || '/%'",
      "nodes" -> nodes)
  }

  test("closure table depths are consistent with labels") {
    val bad = built.plClosure
      .filter(col("adepth") > col("depth")).count()
    assert(bad == 0)
  }

  test("hierarchy index merges >95% of tree nodes on a real corpus") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 300, seed = 8)
    val b = Indexes.build(spark, corpus)
    val nTokens = b.tokens.count()
    val ratio = 1.0 - b.plNodes.size.toDouble / nTokens
    assert(ratio > 0.95, s"merge ratio $ratio (nodes=${b.plNodes.size}, tokens=$nTokens)")
    assert(1.0 - b.posNodes.size.toDouble / nTokens > 0.95)
    b.unpersist()
  }

  test("every token's plId/posId references an existing dataguide node") {
    val maxPl = built.plNodes.size
    val maxPos = built.posNodes.size
    val bad = built.tokens.filter(col("plId") >= maxPl || col("posId") >= maxPos || col("plId") < 0).count()
    assert(bad == 0)
  }

  test("packed postings hold exactly the W rows, in (sid, tid) order, across partitions") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 40, seed = 26).repartition(3)
    val b = Indexes.build(spark, corpus)
    val p = b.postings
    val w = b.word.collect()
    val rows = w.map(r => (r.getAs[Long]("sid"), r.getAs[Int]("tid"), r.getAs[Int]("lo"),
      r.getAs[Int]("hi"), r.getAs[Int]("depth"), r.getAs[Int]("plId"), r.getAs[Int]("posId")))
    val packed = (0 until p.nRows).map(r =>
      (p.sid(r), p.tid(r), p.lo(r), p.hi(r), p.depth(r), p.plId(r), p.posId(r)))
    assert(packed == rows.sortBy(r => (r._1, r._2)).toSeq)
    assert(p.nSentences == corpus.count())
    w.groupBy(_.getAs[String]("word")).foreach { case (word, ws) =>
      val want = ws.map(r => (r.getAs[Long]("sid"), r.getAs[Int]("tid"))).sorted.toSeq
      assert(p.word(word).toSeq.map(r => (p.sid(r), p.tid(r))) == want, word)
    }
    val ents = b.entity.select("etype", "sid").as[(String, Long)].collect()
    // "Entity" stands for any type, as in the query language
    ents.map(_._1).distinct.filter(_ != "Entity").foreach { e =>
      assert(p.entity(e).toSeq == ents.filter(_._1 == e).map(_._2).distinct.sorted.toSeq, e)
    }
    assert(p.entity("Entity").toSeq == ents.map(_._2).distinct.sorted.toSeq)
    b.unpersist()
  }

  test("unpersist releases every dataset the build cached") {
    import spark.implicits._
    val sc = spark.sparkContext
    def cached = sc.getRDDStorageInfo.map(_.id).toSet
    val before = cached
    val b = Indexes.build(spark, CorpusGen.corpus(spark, "wiki", 30, seed = 27))
    b.word.count()
    b.entity.count()
    assert(cached.diff(before).nonEmpty)
    b.unpersist()
    assert(cached.subsetOf(before), s"left cached: ${sc.getRDDStorageInfo.filterNot(i => before(i.id)).toSeq}")
  }

  private def buildFails(sents: Seq[Sent]): String = {
    import spark.implicits._
    val ds = spark.createDataset(sents)
    try intercept[IllegalArgumentException](Indexes.build(spark, ds)).getMessage
    finally ds.unpersist()
  }

  test("build rejects a document with more than 64 sentences (sids would collide)") {
    val doc = (0 until 65).map(k => Sent(3, CorpusGen.gsid(3, k), fig1.toks))
    val msg = buildFails(doc)
    assert(msg.contains(s"sid ${CorpusGen.gsid(3, 64)} of document 3") && msg.contains("at most 64 sentences"), msg)
  }

  test("build rejects a sid that disagrees with its document, or repeats") {
    val msg = buildFails(Seq(fig1, Sent(2, 5, anna.toks)))
    assert(msg.contains("sid 5 of document 2"), msg)
    val dup = buildFails(Seq(fig1, Sent(0, 0, anna.toks)))
    assert(dup.contains("sid 0 occurs more than once"), dup)
  }
}
