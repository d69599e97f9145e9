package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{SparkCounter, SparkCounts, SparkSpec}
import repro.bench.{QualityHarness, SyntheticQueries, Table2Harness}
import repro.index.Indexes
import repro.nlp.{CorpusGen, Sent, Templates}
import scala.util.Random

class KokoEngineSpec extends AnyFunSuite with SparkSpec {

  /** The engine's rows equal the reference's as a multiset of
    * `(doc, sid, vals)`, with scores equal to within 1e-9.
    */
  private def assertSameRows(
      engine: Seq[KokoEngine.OutRow], naive: Seq[NaiveKoko.OutRow], what: String): Unit = {
    def key(doc: Long, sid: Long, vals: Map[String, String]) =
      (doc, sid, vals.toSeq.sorted.mkString("\u0001"))
    val e = engine.map(r => key(r.doc, r.sid, r.vals) -> r.scores).sortBy(_._1)
    val n = naive.map(r => key(r.doc, r.sid, r.vals) -> r.scores).sortBy(_._1)
    assert(e.map(_._1) == n.map(_._1),
      s"$what: engine=${e.size} naive=${n.size} rows; engine-only ${e.map(_._1).diff(n.map(_._1)).take(3)}, " +
        s"naive-only ${n.map(_._1).diff(e.map(_._1)).take(3)}")
    e.zip(n).foreach { case ((k, es), (_, ns)) =>
      assert(es.keySet == ns.keySet && es.forall { case (v, x) => math.abs(x - ns(v)) <= 1e-9 },
        s"$what: scores of $k differ: engine $es, naive $ns")
    }
  }

  private def engineEqualsNaive(kind: String, nDocs: Long, seed: Long, query: String): Unit = {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, kind, nDocs, seed)
    val built = Indexes.build(spark, corpus)
    val sents = corpus.collect().toSeq
    val engine = KokoEngine.run(spark, query, built)
    val naive = NaiveKoko.runQuery(query, sents)
    assertSameRows(engine.rows, naive, s"query:\n$query")
    built.unpersist()
  }

  test("engine equals naive: DateOfBirth query on wiki corpus") {
    engineEqualsNaive("wiki", 40, 3, Table2Harness.DobQ)
  }

  test("engine equals naive: Title query on wiki corpus") {
    engineEqualsNaive("wiki", 60, 4, Table2Harness.TitleQ)
  }

  test("engine equals naive: Chocolate query on wiki corpus") {
    engineEqualsNaive("wiki", 150, 5, Table2Harness.ChocolateQ)
  }

  test("engine equals naive: cafe query with satisfying + excluding") {
    engineEqualsNaive("cafe", 25, 6, QualityHarness.cafeQuery(0.6, withDescriptors = true))
  }

  test("engine equals naive: Example 2.1 on the mixed corpus") {
    engineEqualsNaive("happy", 60, 7,
      """extract e:Entity, d:Str from f if (
        | /ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) }
        | (b) in (e) )""".stripMargin)
  }

  test("DateOfBirth results bind person and date from planted facts") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 50, 8)
    val built = Indexes.build(spark, corpus)
    val r = KokoEngine.run(spark, Table2Harness.DobQ, built)
    assert(r.rows.nonEmpty)
    r.rows.foreach { row =>
      assert(row.vals("b").matches("\\d{4}"), s"date value ${row.vals("b")}")
      assert(row.scores("v") == 1.0) // str(v) ~ "born" with weight 1
    }
    // every result sentence contains the word "born"
    val sids = r.rows.map(_.sid).toSet
    val sents = corpus.collect().filter(s => sids.contains(s.sid))
    assert(sents.forall(_.toks.exists(_.word == "born")))
    built.unpersist()
  }

  test("Title results pair the person with the nickname after 'called'") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 80, 9)
    val built = Indexes.build(spark, corpus)
    val r = KokoEngine.run(spark, Table2Harness.TitleQ, built)
    assert(r.rows.nonEmpty)
    r.rows.foreach { row =>
      assert(repro.nlp.Vocab.Nicknames.contains(row.vals("b")), row.vals.toString)
    }
    built.unpersist()
  }

  test("Chocolate query extracts the chocolate-type entity (low selectivity)") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 400, 10)
    val built = Indexes.build(spark, corpus)
    val r = KokoEngine.run(spark, Table2Harness.ChocolateQ, built)
    r.rows.foreach(row => assert(row.vals("c").endsWith("chocolate")))
    // planted at ~0.8%: expect at least one but far fewer than 10% of docs
    assert(r.rows.nonEmpty)
    assert(r.rows.map(_.doc).distinct.size < 40)
    built.unpersist()
  }

  test("Example 2.2: similarTo separates cities from countries end-to-end") {
    import spark.implicits._
    val s1 = Sent(0, 0, Templates.mk(Templates.suchAs(new Random(1), gpes = false))) // countries
    val s2 = Sent(1, 64, Templates.mk(Templates.suchAs(new Random(1), gpes = true))) // cities
    val built = Indexes.build(spark, spark.createDataset(Seq(s1, s2)))
    val q1 = """extract a:GPE from "input" if () satisfying a (a SimilarTo "city" {1.0})"""
    val q2 = """extract a:GPE from "input" if () satisfying a (a SimilarTo "country" {1.0})"""
    val r1 = KokoEngine.run(spark, q1, built)
    val r2 = KokoEngine.run(spark, q2, built)
    // Q1 only returns the city sentence's GPEs; Q2 only the country ones
    assert(r1.rows.nonEmpty && r1.rows.forall(_.doc == 1))
    assert(r2.rows.nonEmpty && r2.rows.forall(_.doc == 0))
    r1.rows.foreach(r => assert(r.scores("a") > 0.3 && r.scores("a") < 0.5))
    r2.rows.foreach(r => assert(r.scores("a") > 0.4))
    built.unpersist()
  }

  test("timings are populated and non-negative") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 20, 11)
    val built = Indexes.build(spark, corpus)
    val r = KokoEngine.run(spark, Table2Harness.DobQ, built)
    val t = r.timings
    Seq(t.normalize, t.dpli, t.load, t.gsp, t.extract, t.satisfying).foreach(x => assert(x >= 0))
    assert(t.total > 0)
    built.unpersist()
  }

  test("empty extract clause considers all sentences (§4.3)") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "cafe", 10, 12)
    val built = Indexes.build(spark, corpus)
    val nq = Normalizer.normalize(KokoParser.parse(
      QualityHarness.cafeQuery(0.6, withDescriptors = true)))
    assert(KokoEngine.candidateSids(built, nq).isEmpty == false || nq.freeEnts.nonEmpty)
    val r = KokoEngine.run(spark, QualityHarness.cafeQuery(0.6, withDescriptors = true), built)
    assert(r.nCandidateSents > 0)
    built.unpersist()
  }

  test("candidate pruning is complete w.r.t. naive matching sentences") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 50, 13)
    val built = Indexes.build(spark, corpus)
    val sents = corpus.collect().toSeq
    Seq(Table2Harness.ChocolateQ, Table2Harness.TitleQ, Table2Harness.DobQ).foreach { q =>
      val nq = Normalizer.normalize(KokoParser.parse(q))
      val cands = KokoEngine.candidateSids(built, nq) match {
        case Some(df) => df.collect().map(_.getLong(0)).toSet
        case None => sents.map(_.sid).toSet
      }
      val truth = NaiveKoko.matchingSids(nq, sents)
      assert(truth.subsetOf(cands), s"pruning dropped ${truth.diff(cands).size} true sentences")
    }
    built.unpersist()
  }

  /** Generated queries with every variable as a `Str` output, each also
    * with a satisfying clause on `x` whose `near` condition scores against
    * the whole document, so that aggregation is compared too.
    */
  private def generated(sents: Seq[Sent], seed: Long): Seq[Normalizer.NormQuery] = {
    val sample = sents.take(400)
    val trees = SyntheticQueries.treeQueries(sample, perSetting = 1, seed).map(_.query)
    val spans = Seq(1, 3, 5).flatMap(n => SyntheticQueries.spanQueries(sample, n, 3, seed + n).map(_.q))
    val sat = Ast.Satisfying("x",
      Seq(Ast.CSimilar("x", "ate", 0.5), Ast.CNear("x", "a", 0.5)), threshold = 0.2)
    (trees ++ spans).flatMap { q =>
      val withOutputs = q.copy(outputs = q.defs.map(d => Ast.OutVar(d.name, "Str")))
      Seq(withOutputs, withOutputs.copy(satisfying = Seq(sat)))
    }.map(Normalizer.normalize)
  }

  for ((kind, nDocs, seed) <- Seq(("wiki", 30L, 21L), ("happy", 120L, 22L))) {
    test(s"engine equals naive with scores on generated tree and span queries ($kind, seed $seed)") {
      import spark.implicits._
      val corpus = CorpusGen.corpus(spark, kind, nDocs, seed)
      val built = Indexes.build(spark, corpus)
      val sents = corpus.collect().toSeq
      val queries = generated(sents, seed)
      assert(queries.size > 40)
      val nonEmpty = queries.count { nq =>
        val engine = KokoEngine.execute(spark, nq, built, useGsp = true, tNorm = 0)
        assertSameRows(engine.rows, NaiveKoko.run(nq, sents), s"generated query $nq")
        engine.rows.nonEmpty
      }
      assert(nonEmpty > queries.size / 4, s"only $nonEmpty of ${queries.size} queries returned rows")
      built.unpersist()
    }

    test(s"DPLI candidates contain every matching sentence of generated queries ($kind, seed $seed)") {
      import spark.implicits._
      val corpus = CorpusGen.corpus(spark, kind, nDocs, seed)
      val built = Indexes.build(spark, corpus)
      val sents = corpus.collect().toSeq
      generated(sents, seed).foreach { nq =>
        val cands = Dpli.candidates(built, nq).fold(sents.map(_.sid).toSet)(_.toSet)
        val truth = NaiveKoko.matchingSids(nq, sents)
        assert(truth.subsetOf(cands), s"pruning dropped ${truth.diff(cands).take(5)} for $nq")
      }
      built.unpersist()
    }
  }

  /** Runs `query`, checks it returns the reference's rows, and returns
    * the Spark work it caused.
    */
  private def countedRun(built: Indexes.Built, sents: Seq[Sent], query: String): (KokoEngine.Result, SparkCounts) = {
    val (r, counts) = SparkCounter.count(spark.sparkContext)(KokoEngine.run(spark, query, built))
    assertSameRows(r.rows, NaiveKoko.runQuery(query, sents), s"query:\n$query")
    (r, counts)
  }

  test("a word or path absent from the index gives no rows and runs no Spark job") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 30, 24)
    val built = Indexes.build(spark, corpus)
    val sents = corpus.collect().toSeq
    Seq(
      """extract x:Str from "wiki" if ( /ROOT:{ x = //verb/"zzqx" } )""",
      """extract x:Str from "wiki" if ( /ROOT:{ x = "zzqx" + ^ } )""",
      """extract x:Str from "wiki" if ( /ROOT:{ x = /nsubj/dobj } )""").foreach { q =>
      val (r, counts) = countedRun(built, sents, q)
      assert(r.rows.isEmpty && r.nCandidateSents == 0)
      assert(counts.jobs == 0, s"$counts for query:\n$q")
    }
    built.unpersist()
  }

  test("an empty corpus gives no rows and runs no Spark job") {
    import spark.implicits._
    val built = Indexes.build(spark, spark.createDataset(Seq.empty[Sent]))
    assert(built.postings.nSentences == 0 && built.plNodes.isEmpty)
    Seq(Table2Harness.ChocolateQ, Table2Harness.DobQ,
      QualityHarness.cafeQuery(0.6, withDescriptors = true)).foreach { q =>
      val (r, counts) = countedRun(built, Nil, q)
      assert(r.rows.isEmpty)
      assert(counts.jobs == 0, s"$counts for query:\n$q")
    }
    built.unpersist()
  }

  test("a selective query shuffles only its candidate documents, in a fixed number of jobs") {
    import spark.implicits._
    val corpus = CorpusGen.corpus(spark, "wiki", 200, 42)
    val built = Indexes.build(spark, corpus)
    val sents = corpus.collect().toSeq
    val (r, counts) = countedRun(built, sents, Table2Harness.ChocolateQ)
    val nq = Normalizer.normalize(KokoParser.parse(Table2Harness.ChocolateQ))
    val candDocs = Dpli.candidates(built, nq).get.map(_ / CorpusGen.MaxSentsPerDoc).toSet
    val candDocSents = sents.count(s => candDocs.contains(s.doc))
    assert(r.rows.nonEmpty && candDocSents < sents.size / 20)
    // LoadArticle and extract one job each; satisfying's shuffle map stage
    // and its result stage one job each under adaptive query execution
    assert(counts.jobs <= 4, counts.toString)
    assert(counts.shuffleRecordsWritten <= candDocSents + r.nCandidateTuples,
      s"$counts; candidate documents hold $candDocSents sentences, ${r.nCandidateTuples} tuples")
    built.unpersist()
  }
}
