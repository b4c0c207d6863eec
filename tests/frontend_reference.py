"""The text front end as it was before each clause was tokenized once.

Each ``_ref_*`` function rescans its text the way the front end used to:
``find_assets`` per clause, ``WORD_RE`` again in the grouping rules and in
each chunk's boundary-word walk, the whole text re-sliced once per mention
in ``replicate_per_asset``, every regex pass of ``tag_numbers`` and
``clean_filter`` run unconditionally, and ``extract_numeric``'s lexicon
counters summed lemma by lemma. The tests require the front end to give
exactly what these give.
"""

import re
from dataclasses import replace

from finemo import textproc
from finemo.lexicons import lookup_ticker
from finemo.segmenter import (
    ADDITIVE_WORDS,
    BOUNDARY_WORDS,
    FOCUS_TAG,
    NUMBER_RE,
    OTHER_TAG,
    RELATIVE_WORDS,
    WORD_RE,
    _TOKEN_RE,
)
from finemo.textproc import _DATE_OR_NUMBER_RE, _DATE_RE, _RT_RE, _URL_RE, TAGS, ProcessedSegment


def _ref_find_assets(text, lx):
    """Ticker/alias mentions, $/#/@ markers included in their spans."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        token = m.group(0).rstrip(".")
        ticker = lookup_ticker(token, lx)
        if ticker is not None:
            out.append((ticker, (m.start(), m.start() + len(token))))
    return out


def _ref_cut_chunks(text):
    """``segment_clauses``'s chunks, cut by a walk over every character."""
    chunks = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        cut = False
        if c in ".;:!?":
            j = i
            while j + 1 < n and text[j + 1] in ".;:!?":
                j += 1
            if j + 1 >= n or text[j + 1].isspace():
                chunks.append(text[start:i])
                i = j + 1
                start = i
                cut = True
        elif c == ",":
            prev_digit = i > 0 and text[i - 1].isdigit()
            next_digit = i + 1 < n and text[i + 1].isdigit()
            if not (prev_digit and next_digit):
                chunks.append(text[start:i])
                start = i + 1
                i += 1
                cut = True
        elif c == "-" and i > 0 and text[i - 1] == " " and i + 1 < n and text[i + 1] == " ":
            chunks.append(text[start:i])
            start = i + 1
            i += 1
            cut = True
        if not cut:
            i += 1
    chunks.append(text[start:])
    return chunks


def _ref_chunk_walk(chunk):
    """A chunk's clauses: every word is casefolded and looked up in
    ``BOUNDARY_WORDS``."""
    piece_start = 0
    pieces = []
    for m in re.finditer(r"\w[\w.]*", chunk):
        if m.group(0).casefold() in BOUNDARY_WORDS and m.start() > piece_start:
            before = chunk[piece_start:m.start()]
            if before.strip():
                pieces.append(before)
                piece_start = m.start()
    pieces.append(chunk[piece_start:])
    return [p.strip() for p in pieces if p.strip()]


def _ref_segment_clauses(text):
    """``segment_clauses`` as a walk over every character, then every word."""
    return [clause for chunk in _ref_cut_chunks(text) for clause in _ref_chunk_walk(chunk)]


def _ref_join(first, second):
    shift = len(first[0]) + 1
    moved = [(ticker, (s + shift, e + shift)) for ticker, (s, e) in second[1]]
    return f"{first[0]} {second[0]}", first[1] + moved


def _ref_group_forward_pairs(clauses):
    """The grouping rules on (clause, mentions) pairs, each clause and group
    rescanned with ``WORD_RE``."""
    groups = []
    for clause in clauses:
        text, assets = clause
        additive = any(w.casefold() in ADDITIVE_WORDS for w in WORD_RE.findall(text))
        if groups and not (assets or additive or "," in text or "-" in text):
            groups[-1] = _ref_join(groups[-1], clause)
        else:
            groups.append(clause)
    merged = []
    for group in groups:
        first = WORD_RE.search(group[0])
        relative = first is not None and first[0].casefold() in RELATIVE_WORDS
        if merged and relative and merged[-1][1] and group[1]:
            merged[-1] = _ref_join(merged[-1], group)
        else:
            merged.append(group)
    return merged


def _ref_replicate_per_asset(seg):
    """One replica per distinct asset, the text re-sliced once per mention."""
    if not seg.assets:
        raise ValueError("segment has no assets")
    replicas = []
    for focus in dict.fromkeys(seg.asset_names):
        text = seg.text
        new_assets = []
        shift = 0
        for ticker, (start, end) in seg.assets:
            tag = FOCUS_TAG if ticker == focus else OTHER_TAG
            s, e = start + shift, end + shift
            text = text[:s] + tag + text[e:]
            new_assets.append((ticker, (s, s + len(tag))))
            shift += len(tag) - (end - start)
        replicas.append(replace(seg, text=text, assets=tuple(new_assets), focus=focus))
    return replicas


def _ref_tag_numbers(text):
    def _tag(m):
        token = m.group(0)
        if m.group("date"):
            return token
        if token.startswith("-"):
            return "NEGATIVE"
        if token.startswith("+"):
            return "POSITIVE"
        return "NUMBER"

    return _DATE_OR_NUMBER_RE.sub(_tag, text)


def _ref_clean_filter(text, lx):
    text = _URL_RE.sub(" ", text)
    text = _RT_RE.sub(" ", text)
    text = text.replace("$", "").replace("@", "").replace("#", "")
    kept = []
    for token in text.split():
        stripped = token.strip(".,;:!?¡¿()\"'")
        if not stripped:
            continue
        if stripped in TAGS:
            kept.append(stripped)
            continue
        word = stripped.casefold()
        if word in lx.stopwords:
            continue
        kept.append(word)
    return " ".join(kept)


def _ref_process(seg, lx):
    text = _ref_clean_filter(_ref_tag_numbers(seg.text), lx)
    tokens = []
    for token in text.split():
        for word in textproc.split_hashtags(token, lx):
            tokens.append(textproc.lemmatize_correct(word, lx))
    if seg.focus is not None and FOCUS_TAG not in tokens:
        tokens.insert(0, FOCUS_TAG)
    return ProcessedSegment(tokens=tuple(tokens), raw_len=len(seg.text))


def _ref_lemma_counts(lemma, lx):
    """``extract_numeric``'s ten lexicon counters of one casefolded lemma."""
    return _ref_extract_numeric(ProcessedSegment(tokens=(lemma,), raw_len=0), "", lx)[10:]


def _ref_extract_numeric(seg, pre_clean_text, lx):
    text = _DATE_RE.sub(" ", pre_clean_text)
    neg_num = pos_num = neg_perc = pos_perc = total_num = total_perc = 0
    for m in NUMBER_RE.finditer(text):
        token = m.group(0)
        negative = token.startswith("-")
        if token.endswith("%"):
            total_perc += 1
            neg_perc += negative
            pos_perc += not negative
        else:
            total_num += 1
            neg_num += negative
            pos_num += not negative

    words = [w.casefold() for w in WORD_RE.findall(pre_clean_text)]
    fin_abbr = sum(w in lx.abbreviations for w in words)
    exclamation = pre_clean_text.count("!") + pre_clean_text.count("¡")
    interrogation = pre_clean_text.count("?") + pre_clean_text.count("¿")

    lemmas = [t.casefold() for t in seg.tokens]
    adverb_hits = [lx.adverbs[t] for t in lemmas if t in lx.adverbs]
    adverbs = len(adverb_hits)
    adv_neg = sum("negation" in c for c in adverb_hits)
    adv_pos = sum("affirmation" in c for c in adverb_hits)
    adv_doubt = sum("doubt" in c for c in adverb_hits)
    adv_int = sum("intensifier" in c for c in adverb_hits)

    pol = [lx.polarity.get(t) for t in lemmas]
    emo = [lx.emotions.get(t) for t in lemmas]

    return [
        seg.raw_len,
        neg_num,
        pos_num,
        total_num,
        neg_perc,
        pos_perc,
        total_perc,
        fin_abbr,
        exclamation,
        interrogation,
        adverbs,
        adv_neg,
        adv_pos,
        adv_doubt,
        adv_int,
        pol.count("negative"),
        pol.count("neutral"),
        pol.count("positive"),
        emo.count("negative_emotion"),
        emo.count("positive_emotion"),
    ]
