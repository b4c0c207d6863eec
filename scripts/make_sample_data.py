"""Regenerate the bundled sample corpus (data/sample/).

Builds a small labeled tweet stream over the bundled lexicons, with labels
derived from simple keyword rules, plus a matching closing-price series.
Run from the repository root:

    python3 scripts/make_sample_data.py [--out DIR]

``--out`` defaults to data/sample.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import date, datetime, timedelta

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from finemo.lexicons import load_lexicons
from finemo.segmenter import RawTweet, replicate_per_asset, segment_tweet

ROOT = os.path.join(os.path.dirname(__file__), "..")

TWEETS = [
    ("2019-08-05T09:15:00", "#Ibex35 -2,48% mucho cuidado con la banca, posible caída mientras $SAN sigue bajista"),
    ("2019-08-05T10:02:00", "$BBVA cotización estable en la sesión de hoy"),
    ("2019-08-05T11:30:00", "Gran recuperación de #Bankia, +3,1% y subiendo, clara ganancia alcista"),
    ("2019-08-05T12:45:00", "ALUA.BA -2,57% EDN +8,08% CRES.BA -4,86%"),
    ("2019-08-06T09:05:00", "#IBEX35 La superación del 9375 del índice, aupado por una recuperación de la banca"),
    ("2019-08-06T10:10:00", "Resultados de $TEF hoy, veremos la sesión"),
    ("2019-08-06T11:20:00", "Pánico en $SAB.MC, pérdida del -5% y miedo bajista"),
    ("2019-08-06T12:30:00", "$AAPL supera resultados, euforia alcista y ganancia del +4,2%"),
    ("2019-08-06T14:00:00", "RT $AMZN cotización plana, sesión sin movimiento"),
    ("2019-08-07T09:30:00", "Cuidado con $MT, quiebra posible y caída del -7,3%, muy bajista"),
    ("2019-08-07T10:45:00", "$CABK sigue la sesión en el mercado sin cambios"),
    ("2019-08-07T11:55:00", "#Telefonica alcista, recuperación clara, mientras $KO cotización neutra"),
    ("2019-08-07T13:15:00", "$NKE +2,9% ganancia clara, euforia en el mercado"),
    ("2019-08-08T09:20:00", "Tristeza en #Ibex35, caída del -1,9% y pérdida generalizada"),
    ("2019-08-08T10:35:00", "$SAN resultados hoy, la sesión dirá, veremos"),
    ("2019-08-08T11:50:00", "Sorpresa alcista en $BBVA, superación del 5,1 y ganancia"),
    ("2019-08-08T13:05:00", "$EDN cotización de la sesión, mercado tranquilo"),
    ("2019-08-09T09:10:00", "Miedo bajista en $AMZN, cuidado con la caída del -3,4%"),
    ("2019-08-09T10:25:00", "Alegría en #caixabank, recuperación y subida alcista +1,8%"),
    ("2019-08-09T11:40:00", "$KO y $NKE cotización mixta en la sesión de hoy"),
    ("2019-08-12T09:00:00", "Quiebra de guante blanco en $MT, pérdida bajista, pánico"),
    ("2019-08-12T10:15:00", "$AAPL mercado estable, sesión de cotización normal"),
    ("2019-08-12T11:30:00", "Euforia alcista: $TEF ganancia del +2,2% y superación clara"),
    ("2019-08-13T09:45:00", "#Ibex35 cuidado, -2,1% de caída y miedo en la banca, $SAN bajista también"),
    ("2019-08-13T11:00:00", "Recuperación del mercado, $CABK alcista con ganancia +1,4%"),
]

PRECAUTION_WORDS = ("caída", "bajista", "pérdida", "quiebra", "cuidado", "pánico", "miedo", "tristeza")
OPPORTUNITY_WORDS = ("alcista", "ganancia", "recuperación", "superación", "euforia", "alegría", "subiendo", "subida")


def label_for(text: str) -> str:
    lowered = text.casefold()
    pre = any(w in lowered for w in PRECAUTION_WORDS)
    opp = any(w in lowered for w in OPPORTUNITY_WORDS)
    if pre and not opp:
        return "P"
    if opp and not pre:
        return "O"
    return "N"


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default=os.path.join(ROOT, "data", "sample"),
                        help="directory to write the sample into (default: data/sample)")
    out = parser.parse_args().out
    os.makedirs(out, exist_ok=True)
    lx = load_lexicons(os.path.join(ROOT, "data", "lexicons"))

    tweets = []
    with open(os.path.join(out, "tweets.jsonl"), "w", encoding="utf-8") as fh:
        for i, (created_at, text) in enumerate(TWEETS):
            tweet = RawTweet(id=f"t{i:03d}", timestamp=datetime.fromisoformat(created_at), text=text)
            tweets.append(tweet)
            fh.write(json.dumps({"id": tweet.id, "created_at": created_at, "text": text},
                                ensure_ascii=False) + "\n")

    tickers = set()
    n_replicas = 0
    with open(os.path.join(out, "labels.tsv"), "w", encoding="utf-8") as fh:
        fh.write("# tweet_id\tsegment_index\tfocus_ticker\tlabel\n")
        for tweet in tweets:
            for index, seg in enumerate(segment_tweet(tweet, lx)):
                for replica in replicate_per_asset(seg):
                    fh.write(f"{tweet.id}\t{index}\t{replica.focus}\t{label_for(seg.text)}\n")
                    tickers.add(replica.focus)
                    n_replicas += 1

    # deterministic weekday closes covering the posting range plus the
    # regression-test rows for IBEX35 around 2019-07-30 and 2019-08-06
    fixed = {
        ("IBEX35", date(2019, 7, 29)): 9200.0,
        ("IBEX35", date(2019, 7, 31)): 9100.0,
        ("IBEX35", date(2019, 8, 5)): 9000.0,
        ("IBEX35", date(2019, 8, 7)): 9050.0,
    }
    with open(os.path.join(out, "prices.csv"), "w", encoding="utf-8") as fh:
        fh.write("ticker,date,close\n")
        for t, ticker in enumerate(sorted(tickers)):
            day = date(2019, 7, 26)
            k = 0
            while day <= date(2019, 8, 15):
                if day.weekday() < 5:
                    close = fixed.get((ticker, day))
                    if close is None:
                        close = round(100.0 + 7 * t + 3.0 * ((k * (t + 2)) % 5) - 3.0, 2)
                    fh.write(f"{ticker},{day.isoformat()},{close}\n")
                    k += 1
                day += timedelta(days=1)

    print(f"wrote {len(tweets)} tweets, {n_replicas} labeled replicas, "
          f"{len(tickers)} price series to {os.path.normpath(out)}")


if __name__ == "__main__":
    main()
