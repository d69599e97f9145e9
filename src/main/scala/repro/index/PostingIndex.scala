package repro.index

import java.util.Arrays
import scala.collection.mutable
import repro.nlp.{CorpusGen, Sent, TreeOps}

/** The W quintuples `(sid, tid, lo, hi, depth)` with their `plId`/`posId`,
  * packed once into primitive arrays sorted by `(sid, tid)`, plus posting
  * lists keyed by exact word, lower-cased word, `plId` and `posId`, and the
  * sentences holding each entity type. This is the driver-side stand-in for
  * the paper's B-tree tables: a lookup reads only its own postings.
  *
  * A posting is a row number; rows of one sentence are contiguous and in
  * `tid` order, so a posting list sorted by row is sorted by `(sid, tid)`.
  */
final class PostingIndex private (
    sentSid: Array[Long],
    sentStart: Array[Int],
    sentOf: Array[Int],
    loOf: Array[Int],
    hiOf: Array[Int],
    depthOf: Array[Int],
    plIdOf: Array[Int],
    posIdOf: Array[Int],
    byWord: PostingIndex.Keyed,
    byLowerWord: PostingIndex.Keyed,
    byPl: PostingIndex.Csr,
    byPos: PostingIndex.Csr,
    entitySids: Map[String, Array[Long]]) {

  def nRows: Int = sentOf.length
  def nSentences: Int = sentSid.length

  /** Sentence ordinal of a row; ordinals ascend with `sid`. */
  def sent(row: Int): Int = sentOf(row)
  def sid(row: Int): Long = sentSid(sentOf(row))
  def tid(row: Int): Int = row - sentStart(sentOf(row))
  def lo(row: Int): Int = loOf(row)
  def hi(row: Int): Int = hiOf(row)
  def depth(row: Int): Int = depthOf(row)
  def plId(row: Int): Int = plIdOf(row)
  def posId(row: Int): Int = posIdOf(row)

  /** Every row of sentence `s`. */
  def sentRows(s: Int): Range = sentStart(s) until sentStart(s + 1)

  /** Postings of a word, matched exactly; empty if absent. */
  def word(w: String): Array[Int] = byWord(w)

  /** Postings of every word equal to `w` ignoring case. */
  def wordIgnoreCase(w: String): Array[Int] = byLowerWord(w.toLowerCase)

  /** Postings of tokens whose PL (POS) dataguide node is one of `ids`. */
  def plPostings(ids: Seq[Int]): Array[Int] = byPl.union(ids)
  def posPostings(ids: Seq[Int]): Array[Int] = byPos.union(ids)
  def plCount(ids: Seq[Int]): Long = ids.map(byPl.count(_).toLong).sum
  def posCount(ids: Seq[Int]): Long = ids.map(byPos.count(_).toLong).sum

  /** Sorted distinct sids of a posting list sorted by row. */
  def sidsOf(rows: Array[Int]): Array[Long] = {
    val b = Array.newBuilder[Long]
    var last = -1
    rows.foreach { r =>
      val s = sentOf(r)
      if (s != last) { b += sentSid(s); last = s }
    }
    b.result()
  }

  /** Sorted sids of sentences with an entity mention of type `etype`;
    * "Entity" stands for any type.
    */
  def entity(etype: String): Array[Long] = entitySids.getOrElse(etype, Array.emptyLongArray)
}

object PostingIndex {

  /** Posting lists in compressed-row form: key `k` owns
    * `rows(offsets(k) until offsets(k + 1))`, sorted ascending.
    */
  final class Csr(offsets: Array[Int], rows: Array[Int]) {
    private def valid(k: Int): Boolean = k >= 0 && k < offsets.length - 1
    def count(k: Int): Int = if (valid(k)) offsets(k + 1) - offsets(k) else 0
    def apply(k: Int): Array[Int] =
      if (valid(k)) Arrays.copyOfRange(rows, offsets(k), offsets(k + 1)) else Array.emptyIntArray
    def union(ks: Seq[Int]): Array[Int] = {
      val out = ks.distinct.flatMap(apply).toArray
      Arrays.sort(out)
      out
    }
  }

  /** Posting lists keyed by a string. */
  final class Keyed(ids: Map[String, Int], csr: Csr) {
    def apply(key: String): Array[Int] = ids.get(key).fold(Array.emptyIntArray)(csr(_))
  }

  /** Rows grouped by key, each group in row order (a counting sort). */
  private def csr(keys: Array[Int], nKeys: Int): Csr = {
    val offsets = new Array[Int](nKeys + 1)
    keys.foreach(k => offsets(k + 1) += 1)
    var k = 0
    while (k < nKeys) { offsets(k + 1) += offsets(k); k += 1 }
    val next = offsets.clone()
    val rows = new Array[Int](keys.length)
    var r = 0
    while (r < keys.length) { rows(next(keys(r))) = r; next(keys(r)) += 1; r += 1 }
    new Csr(offsets, rows)
  }

  /** Strings numbered in order of first appearance. */
  private final class Dict {
    private val ids = mutable.HashMap.empty[String, Int]
    private val keys = mutable.ArrayBuffer.empty[String]
    def apply(s: String): Int = ids.getOrElseUpdate(s, { keys += s; keys.size - 1 })
    def result: Array[String] = keys.toArray
  }

  /** One partition's sentences, packed with partition-local dictionaries
    * for words, PL paths, POS paths and entity types. `badSid` is the first
    * sentence whose `sid` breaks `sid = doc * MaxSentsPerDoc + k`.
    */
  final class Part(
      val sids: Array[Long],
      val nToks: Array[Int],
      val lo: Array[Int],
      val hi: Array[Int],
      val depth: Array[Int],
      val word: Array[Int],
      val pl: Array[Int],
      val pos: Array[Int],
      val words: Array[String],
      val plPaths: Array[String],
      val posPaths: Array[String],
      val entSent: Array[Int],
      val entType: Array[Int],
      val etypes: Array[String],
      val badSid: Option[(Long, Long)]) extends Serializable

  /** Packs one partition (runs on an executor). */
  def pack(sents: Iterator[Sent]): Part = {
    val words, plPaths, posPaths, etypes = new Dict
    val sids = Array.newBuilder[Long]
    val nToks, lo, hi, depth, word, pl, pos, entSent, entType = Array.newBuilder[Int]
    var badSid = Option.empty[(Long, Long)]
    var k = 0
    sents.foreach { s =>
      if (badSid.isEmpty && (s.sid < 0 || s.sid / CorpusGen.MaxSentsPerDoc != s.doc))
        badSid = Some(s.doc -> s.sid)
      val m = TreeOps.meta(s.toks)
      sids += s.sid
      nToks += s.toks.size
      s.toks.foreach { t =>
        lo += m.lo(t.tid); hi += m.hi(t.tid); depth += m.depth(t.tid)
        word += words(t.word); pl += plPaths(m.plPath(t.tid)); pos += posPaths(m.posPath(t.tid))
      }
      s.toks.filter(_.eid >= 0).map(_.etype).distinct.foreach { e =>
        entSent += k; entType += etypes(e)
      }
      k += 1
    }
    new Part(sids.result(), nToks.result(), lo.result(), hi.result(), depth.result(),
      word.result(), pl.result(), pos.result(), words.result, plPaths.result, posPaths.result,
      entSent.result(), entType.result(), etypes.result, badSid)
  }

  /** Merges the packed partitions (on the driver), numbering PL and POS
    * paths by their dataguide ids. Fails if a sid breaks the encoding
    * `sid = doc * MaxSentsPerDoc + k` or repeats, because sids would then
    * collide and the engine derives a sentence's document from its sid.
    */
  def merge(parts: Seq[Part], plIds: Map[String, Int], posIds: Map[String, Int]): PostingIndex = {
    parts.flatMap(_.badSid).headOption.foreach { case (doc, sid) =>
      throw new IllegalArgumentException(
        s"sentence sid $sid of document $doc breaks sid = doc * ${CorpusGen.MaxSentsPerDoc} + k " +
          s"with 0 <= k < ${CorpusGen.MaxSentsPerDoc} (a document holds at most " +
          s"${CorpusGen.MaxSentsPerDoc} sentences)")
    }
    // Sentences in sid order: (part, local sentence, first local row).
    val located = parts.zipWithIndex.flatMap { case (p, pi) =>
      val starts = p.nToks.scanLeft(0)(_ + _)
      p.sids.indices.map(k => (p.sids(k), pi, k, starts(k)))
    }.sortBy(_._1).toArray
    (1 until located.length).find(i => located(i)._1 == located(i - 1)._1).foreach { i =>
      throw new IllegalArgumentException(s"sentence sid ${located(i)._1} occurs more than once")
    }

    val nSent = located.length
    val nRows = parts.map(_.lo.length).sum
    val words = new Dict
    val wordOf = parts.map(_.words.map(words(_)))
    val plOf = parts.map(_.plPaths.map(plIds))
    val posOf = parts.map(_.posPaths.map(posIds))

    val sentSid = new Array[Long](nSent)
    val sentStart = new Array[Int](nSent + 1)
    val sentOf, lo, hi, depth, word, pl, pos = new Array[Int](nRows)
    val ordinal = parts.map(p => new Array[Int](p.sids.length))
    var r = 0
    located.zipWithIndex.foreach { case ((sid, pi, k, from), s) =>
      val p = parts(pi)
      sentSid(s) = sid
      sentStart(s) = r
      ordinal(pi)(k) = s
      var i = from
      while (i < from + p.nToks(k)) {
        sentOf(r) = s
        lo(r) = p.lo(i); hi(r) = p.hi(i); depth(r) = p.depth(i)
        word(r) = wordOf(pi)(p.word(i)); pl(r) = plOf(pi)(p.pl(i)); pos(r) = posOf(pi)(p.pos(i))
        r += 1; i += 1
      }
    }
    sentStart(nSent) = r

    val wordKeys = words.result
    val lower = new Dict
    val lowerOf = wordKeys.map(w => lower(w.toLowerCase))
    val byWord = new Keyed(wordKeys.zipWithIndex.toMap, csr(word, wordKeys.length))
    val lowerKeys = lower.result
    val byLower = new Keyed(lowerKeys.zipWithIndex.toMap, csr(word.map(lowerOf), lowerKeys.length))

    val mentions = parts.zipWithIndex.flatMap { case (p, pi) =>
      p.entSent.indices.map(j => p.etypes(p.entType(j)) -> sentSid(ordinal(pi)(p.entSent(j))))
    }
    def sortedSids(ss: Seq[Long]): Array[Long] = ss.distinct.sorted.toArray
    val entitySids = mentions.groupBy(_._1).map { case (e, ms) => e -> sortedSids(ms.map(_._2)) } +
      ("Entity" -> sortedSids(mentions.map(_._2)))

    new PostingIndex(sentSid, sentStart, sentOf, lo, hi, depth, pl, pos, byWord, byLower,
      csr(pl, plIds.size), csr(pos, posIds.size), entitySids)
  }
}
