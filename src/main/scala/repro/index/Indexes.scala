package repro.index

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.nlp.{Sent, TreeOps}

/** A node of a hierarchy index (compressed dataguide, §3). Identified by
  * its unique root path; `id` is deterministic (rank of the sorted path).
  */
final case class HierNode(id: Int, path: String, label: String, depth: Int)

/** KOKO's multi-index over a parsed corpus (§3 + §6.2.1):
  *
  *  - `postings` — W and the entity index packed into driver-side arrays
  *    keyed by word, `plId`, `posId` and entity type ([[PostingIndex]]);
  *    DPLI reads only these
  *  - `word`     — W(word, x, y, u, v, d, plId, posId) as a DataFrame
  *  - `entity`   — E(entity, etype, x, u, v) as a DataFrame
  *  - `plNodes`/`posNodes` — the hierarchy-index dataguides (driver-side;
  *    merging identical nodes removes >99% of tree nodes, so these are
  *    tiny by construction — verified in tests)
  *  - `plClosure`/`posClosure` — the Closure-Table representation the
  *    paper stores in PostgreSQL: (id, label, depth, aid, alabel, adepth)
  *  - `sentences`— the parsed-text store (LoadArticle reads from here)
  *
  * `tokens`, `word`, `entity` and the closure tables are not cached: no
  * query reads them; they serve the index-size comparison and the tests.
  */
object Indexes {

  final case class Built(
      sentences: Dataset[Sent],
      tokens: DataFrame,
      word: DataFrame,
      entity: DataFrame,
      plNodes: Seq[HierNode],
      posNodes: Seq[HierNode],
      plClosure: DataFrame,
      posClosure: DataFrame,
      postings: PostingIndex) {

    def spark: SparkSession = sentences.sparkSession

    /** Release cached data (between bench scales). */
    def unpersist(): Unit = sentences.unpersist()
  }

  private def dataguide(paths: Seq[String]): Seq[HierNode] = {
    // Merging identical nodes ≡ taking the distinct set of root paths; a
    // node's children automatically have distinct labels. Ids are ranks in
    // path order, so they are deterministic across runs.
    val all = paths.flatMap { p =>
      // every prefix of a token's path is a node of the index
      val parts = p.split("/").toList.drop(1)
      (1 to parts.size).map(k => "/" + parts.take(k).mkString("/"))
    }.distinct.sorted
    all.zipWithIndex.map { case (p, i) =>
      val parts = p.split("/").drop(1)
      HierNode(i, p, parts.last, parts.length - 1)
    }
  }

  private def closureDf(spark: SparkSession, nodes: Seq[HierNode]): DataFrame = {
    import spark.implicits._
    val byPath = nodes.map(n => n.path -> n).toMap
    val rows = nodes.flatMap { n =>
      val parts = n.path.split("/").drop(1)
      (1 to parts.length).map { k =>
        val a = byPath("/" + parts.take(k).mkString("/"))
        (n.id, n.label, n.depth, a.id, a.label, a.depth)
      }
    }
    rows.toDF("id", "label", "depth", "aid", "alabel", "adepth")
  }

  /** Build all indices. The corpus is materialized (cached) because index
    * construction and query evaluation both scan it. One pass over it
    * packs every partition's postings; the driver then derives both
    * dataguides from the packed paths and merges the partitions into the
    * [[PostingIndex]].
    */
  def build(spark: SparkSession, sents: Dataset[Sent]): Built = {
    import spark.implicits._
    val sentences = sents.cache()
    val parts = sentences.rdd.mapPartitions(it => Iterator(PostingIndex.pack(it))).collect().toSeq

    val plNodes = dataguide(parts.flatMap(_.plPaths).distinct)
    val posNodes = dataguide(parts.flatMap(_.posPaths).distinct)
    val plIdMap = plNodes.map(n => n.path -> n.id).toMap
    val posIdMap = posNodes.map(n => n.path -> n.id).toMap
    val postings = PostingIndex.merge(parts, plIdMap, posIdMap)

    val bPl = spark.sparkContext.broadcast(plIdMap)
    val bPos = spark.sparkContext.broadcast(posIdMap)
    val tokens = sentences
      .flatMap { s =>
        val m = TreeOps.meta(s.toks)
        s.toks.map { t =>
          (s.doc, s.sid, t.tid, t.word, t.pos, t.label, t.head, t.etype, t.eid,
           m.lo(t.tid), m.hi(t.tid), m.depth(t.tid),
           bPl.value(m.plPath(t.tid)), bPos.value(m.posPath(t.tid)))
        }
      }
      .toDF("doc", "sid", "tid", "word", "pos", "label", "head", "etype",
        "eid", "lo", "hi", "depth", "plId", "posId")

    val word = tokens.select("word", "doc", "sid", "tid", "lo", "hi", "depth", "plId", "posId")

    val entity = sentences
      .flatMap(s => TreeOps.entityMentions(s).map(m => (m.text, m.etype, m.doc, m.sid, m.lo, m.hi)))
      .toDF("entity", "etype", "doc", "sid", "lo", "hi")

    Built(sentences, tokens, word, entity, plNodes, posNodes,
      closureDf(spark, plNodes), closureDf(spark, posNodes), postings)
  }
}
