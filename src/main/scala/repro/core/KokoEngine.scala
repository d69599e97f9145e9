package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, udf}
import repro.index.Indexes
import repro.nlp.{CorpusGen, Sent}

/** The KOKO engine: the 4-stage pipeline of Figure 2 on Spark.
  *
  *  1. Normalize   — parse + §4.1 normalization (driver);
  *  2. DPLI        — §4.2 index lookups and posting-list joins over the
  *                   driver-side packed posting index, producing the sorted
  *                   candidate sids (no Spark job);
  *  3. LoadArticle — the candidate documents (`doc = sid / 64`): a narrow
  *                   filter of the cached sentences on the broadcast
  *                   document ids, cached (no join, no shuffle);
  *  4. GSP+extract — per-sentence skip-plan + extract-clause evaluation of
  *                   the candidate sentences of the loaded documents, with
  *                   the query broadcast;
  *  5. Aggregate   — satisfying/excluding evaluation per document: the
  *                   loaded documents that hold a candidate tuple are
  *                   grouped by document (the query's only shuffle) and
  *                   scored against the broadcast tuples.
  *
  * A query with no candidate sentence runs no Spark job. Per-stage
  * wall-clock timings mirror Table 2's breakdown; GSP time is accumulated
  * across executors with a Spark accumulator (DESIGN.md §5).
  */
object KokoEngine {

  final case class Timings(
      normalize: Double,
      dpli: Double,
      load: Double,
      gsp: Double,
      extract: Double,
      satisfying: Double) {
    def total: Double = normalize + dpli + load + extract + satisfying
  }

  final case class OutRow(
      doc: Long,
      sid: Long,
      vals: Map[String, String],
      scores: Map[String, Double])

  final case class Result(
      rows: Seq[OutRow],
      timings: Timings,
      nCandidateSents: Long,
      nCandidateTuples: Long)

  /** Candidate tuple emitted by the extract stage (public: Spark codegen
    * must be able to construct it when deserializing).
    */
  final case class Cand(doc: Long, sid: Long, vals: Map[String, String])

  private def sidFrame(built: Indexes.Built, sids: Array[Long]): DataFrame = {
    val spark = built.spark
    import spark.implicits._
    sids.toSeq.toDF("sid")
  }

  /** Per-variable pruning items as DataFrames (single `sid` column,
    * distinct): a view of [[Dpli.pruningSids]].
    */
  def pruningItems(built: Indexes.Built, nq: Normalizer.NormQuery): Seq[DataFrame] =
    Dpli.pruningSids(built, nq).map(sidFrame(built, _))

  /** Candidate sentence ids after DPLI as a DataFrame (single `sid`
    * column, distinct); None means "no pruning possible" (empty extract
    * clause — all sentences are considered, §4.3). A view of
    * [[Dpli.candidates]].
    */
  def candidateSids(built: Indexes.Built, nq: Normalizer.NormQuery): Option[DataFrame] =
    Dpli.candidates(built, nq).map(sidFrame(built, _))

  def run(
      spark: SparkSession,
      src: String,
      built: Indexes.Built,
      useGsp: Boolean = true): Result = {
    val t0 = System.nanoTime()
    val nq = Normalizer.normalize(KokoParser.parse(src))
    execute(spark, nq, built, useGsp, (System.nanoTime() - t0) / 1e9)
  }

  /** Stages 2–5 for a normalized query; `tNorm` is the time stage 1 took. */
  private[core] def execute(
      spark: SparkSession,
      nq: Normalizer.NormQuery,
      built: Indexes.Built,
      useGsp: Boolean,
      tNorm: Double): Result = {
    import spark.implicits._
    val sc = spark.sparkContext

    // ---- DPLI
    var t0 = System.nanoTime()
    val candSids = Dpli.candidates(built, nq)
    val nCand = candSids.fold(built.postings.nSentences.toLong)(_.length.toLong)
    val tDpli = (System.nanoTime() - t0) / 1e9
    if (nCand == 0) return Result(Nil, Timings(tNorm, tDpli, 0, 0, 0, 0), 0, 0)

    // ---- LoadArticle: the candidate documents (doc = sid / 64), by a
    // narrow filter of the cached sentences on the document column.
    t0 = System.nanoTime()
    val bSids = candSids.map(sc.broadcast(_))
    val bDocs = candSids.map(c => sc.broadcast(c.map(_ / CorpusGen.MaxSentsPerDoc).distinct))
    val loaded = bDocs.map(b => built.sentences.filter(isIn(b)(col("doc"))).cache())
    // Computing a partition fills its cache block; the rows need not be read.
    loaded.foreach(_.foreachPartition((_: Iterator[Sent]) => ()))
    val docSents = loaded.getOrElse(built.sentences)
    val tLoad = (System.nanoTime() - t0) / 1e9

    // ---- GSP + extract, on the candidate sentences only
    t0 = System.nanoTime()
    val gspAcc = sc.longAccumulator("gspNs")
    val bq = sc.broadcast(nq)
    val needed = nq.neededVars
    val outputs = nq.outputs
    val cands = bSids.fold(docSents)(b => docSents.filter(isIn(b)(col("sid")))).flatMap { s =>
      val q = bq.value
      SentenceEvaluator.evaluate(q, s, useGsp, ns => gspAcc.add(ns)).flatMap { bound =>
        val vals = needed.flatMap(v =>
          bound.get(v).map(b => v -> SentenceEvaluator.valueOf(s, b))).toMap
        if (outputs.forall(o => vals.contains(o.name))) Some(Cand(s.doc, s.sid, vals))
        else None
      }
    }.collect()
    val tGsp = gspAcc.value / 1e9
    val tExtract = (System.nanoTime() - t0) / 1e9 - tGsp

    // ---- Aggregate (satisfying + excluding): the loaded documents that
    // hold a candidate tuple, grouped by document; the tuples are broadcast.
    t0 = System.nanoTime()
    val rows: Seq[OutRow] =
      if (nq.satisfying.isEmpty && nq.excluding.isEmpty)
        cands.toSeq.map(c => OutRow(c.doc, c.sid, c.vals, Map.empty))
      else if (cands.isEmpty) Nil
      else {
        val satCs = nq.satisfying
        val exCs = nq.excluding
        val byDoc = cands.groupBy(_.doc)
        val bCands = sc.broadcast(byDoc)
        val bTupleDocs = sc.broadcast(byDoc.keys.toArray.sorted)
        val rows = docSents.filter(isIn(bTupleDocs)(col("doc")))
          .groupByKey(_.doc)
          .flatMapGroups { (doc, sit) =>
            val sents = sit.toSeq.sortBy(_.sid)
            val cache = scala.collection.mutable.Map[(String, String), Double]()
            bCands.value(doc).iterator.flatMap { c =>
              val scores = satCs.map { sat =>
                val v = c.vals(sat.v)
                sat.v -> cache.getOrElseUpdate((sat.v, v), Aggregator.score(sat, v, sents))
              }.toMap
              val pass = satCs.forall(s0 => scores(s0.v) >= s0.threshold)
              lazy val excl = exCs.exists(e =>
                c.vals.get(e.v).exists(v => Aggregator.condScore(e, v, sents) > 0))
              if (pass && !excl) Some(OutRow(c.doc, c.sid, c.vals, scores)) else None
            }
          }
          .collect().toSeq
        bCands.destroy()
        bTupleDocs.destroy()
        rows
      }
    val tSat = (System.nanoTime() - t0) / 1e9

    loaded.foreach(_.unpersist())
    (bq +: (bSids ++ bDocs).toSeq).foreach(_.destroy())
    Result(rows, Timings(tNorm, tDpli, tLoad, tGsp, tExtract, tSat), nCand, cands.length.toLong)
  }

  /** `x` is in the sorted array `b`. */
  private def isIn(b: Broadcast[Array[Long]]) =
    udf((x: Long) => java.util.Arrays.binarySearch(b.value, x) >= 0)
}
