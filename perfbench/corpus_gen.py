"""Seeded synthetic German corpus for the benchmark.

Sentences are built from a small phrase grammar over the word list below,
which the benchmark owns. The list covers all six definite articles,
umlauts, ß, the diphthongs ei/ai/au/eu/äu and hiatus words (two vowels
in separate syllables, as in "Theater" or "Museum"). Lengths follow the
paper's corpus: about 117 characters on average, capped at 200; extra rows
over the cap can be asked for so the length filter has work to do. Target
lengths are the quantiles of one fixed distribution, shuffled per seed, so
any n rows have the same length profile whatever the seed: the seed changes
the words and which row is long, not how much text there is.

The same seed always gives the same rows (only `random.Random` is used).
"""

from __future__ import annotations

import random
from statistics import NormalDist

ARTICLES = ("der", "die", "das", "den", "dem", "des")
INDEFINITE = ("ein", "eine", "einen", "einem", "einer", "eines", "kein", "keine")

NOUNS = (
    "Haus", "Baum", "Frau", "Mann", "Kind", "Stadt", "Straße", "Brücke",
    "Mädchen", "Vogel", "Vögel", "Tür", "Fuß", "Füße", "Größe", "Öl",
    "Zeit", "Eis", "Leute", "Feuer", "Häuser", "Bäume", "Kaiser", "Mai",
    "Theater", "Museum", "Ozean", "Ideal", "Poet", "Ruine", "Linie",
    "Koalition", "Nation", "Station", "Familie", "Sonne", "Wasser", "Wald",
    "Fluss", "Berg", "Tal", "Licht", "Nacht", "Tag", "Morgen", "Abend",
    "Wind", "Regen", "Schnee", "Blume", "Geist", "Bart", "Schule", "Lehrer",
    "Schüler", "Buch", "Bücher", "Zeitung", "Brief", "Arbeit", "Geschichte",
    "Kirche", "Garten", "Gärten", "Wiese", "Feld", "Dorf", "Dörfer", "Insel",
    "Küste", "Hafen", "Schiff", "Zug", "Bahnhof", "Flughafen", "Auto",
    "Fahrrad", "Wagen", "Pferd", "Hund", "Katze", "Maus", "Mäuse", "Fisch",
    "Brot", "Käse", "Milch", "Kaffee", "Tee", "Suppe", "Apfel", "Äpfel",
    "Tisch", "Stuhl", "Fenster", "Zimmer", "Küche", "Treppe", "Dach",
    "Wand", "Mauer", "Turm", "Schloss", "Burg", "König", "Königin", "Volk",
    "Freund", "Freunde", "Bruder", "Schwester", "Vater", "Mutter", "Sohn",
    "Tochter", "Onkel", "Nachbar", "Arzt", "Ärztin", "Bauer", "Jäger",
    "Sänger", "Musik", "Lied", "Stimme", "Sprache", "Wort", "Wörter",
    "Frage", "Antwort", "Idee", "Meinung", "Grund", "Ende", "Anfang",
    "Woche", "Jahr", "Jahre", "Monat", "Stunde", "Minute", "Weg", "Reise",
    "Heimat", "Welt", "Erde", "Himmel", "Stern", "Mond", "Wolke", "Gewitter",
    "Meer", "See", "Quelle", "Strom", "Energie", "Maschine", "Technik",
    "System", "Typ", "Physik", "Chemie", "Theorie", "Praxis", "Text",
    "Hexe", "Zwerg", "Riese", "Drache", "Schatz", "Gold", "Silber", "Eisen",
    "Kreuz", "Platz", "Markt", "Preis", "Geld", "Bank", "Polizei", "Soldat",
    "Krieg", "Frieden", "Gesetz", "Gericht", "Partei", "Regierung", "Bürger",
    "Deutschland", "Europa", "Bayern", "Sachsen", "Österreich", "Schweiz",
    "Bartscherer", "Chor", "Jacke", "Tasche", "Pflanze", "Pfeffer", "Quark",
    "Qualität", "Dschungel", "Matsch", "Rhein", "Thema", "Ecke", "Glück",
    "Übung", "Überfall", "Äußerung", "Beute", "Scheune", "Zeugnis", "Laune",
)

ADJECTIVES = (
    "schönen", "großen", "kleinen", "alten", "neuen", "guten", "heißen",
    "kalten", "weißen", "schwarzen", "roten", "grünen", "blauen", "langen",
    "kurzen", "hohen", "tiefen", "süßen", "bösen", "müden", "frühen",
    "späten", "schnellen", "langsamen", "lauten", "leisen", "dunklen",
    "hellen", "freundlichen", "fröhlichen", "traurigen", "ruhigen",
    "wilden", "zahmen", "reichen", "armen", "klugen", "dummen", "jungen",
    "ideale", "kreativen", "neutrale", "feuchten", "teuren", "bayrischen",
    "ehrlichen", "schönste", "größte", "äußere", "übrige", "eiserne",
)

VERBS = (
    "ist", "war", "hat", "hatte", "wird", "wurde", "wurden", "sieht", "sah",
    "geht", "ging", "kommt", "kam", "steht", "stand", "liegt", "lag",
    "findet", "fand", "bringt", "brachte", "schreibt", "schrieb", "liest",
    "las", "singt", "sang", "spielt", "spielte", "baut", "baute", "kauft",
    "kaufte", "verkauft", "sucht", "suchte", "trägt", "trug", "fährt",
    "fuhr", "läuft", "lief", "schläft", "schlief", "heißt", "hieß", "weiß",
    "wusste", "beginnt", "begann", "schließt", "schloss", "überfallen",
    "beeilen", "beachtet", "erzählt", "erzählte", "gehört", "gehörte",
    "bleibt", "blieb", "zeigt", "zeigte", "fragt", "fragte", "antwortet",
    "träumt", "träumte", "freut", "feiert", "feierte", "reist", "reiste",
)

PREPOSITIONS = (
    "in", "im", "an", "am", "auf", "mit", "von", "vom", "zu", "zum", "zur",
    "bei", "nach", "aus", "über", "unter", "vor", "hinter", "neben",
    "zwischen", "durch", "für", "gegen", "ohne", "um", "bis", "seit",
)

FUNCTION = (
    "und", "oder", "aber", "als", "wenn", "weil", "dass", "daß", "ob",
    "sie", "er", "es", "wir", "ihr", "ich", "du", "man", "wer", "was",
    "nicht", "auch", "noch", "schon", "sehr", "immer", "nie", "heute",
    "gestern", "morgen", "hier", "dort", "dann", "jetzt", "so", "nur",
    "ganz", "viel", "mehr", "wieder", "zusammen", "leider", "natürlich",
)

MEAN_CHARS = 117
SD_CHARS = 38
MIN_CHARS = 24
MAX_CHARS = 200


def _noun_phrase(rng: random.Random) -> list[str]:
    det = rng.choice(ARTICLES) if rng.random() < 0.75 else rng.choice(INDEFINITE)
    words = [det]
    if rng.random() < 0.45:
        words.append(rng.choice(ADJECTIVES))
    words.append(rng.choice(NOUNS))
    return words


def _chunk(rng: random.Random) -> list[str]:
    r = rng.random()
    if r < 0.40:
        return _noun_phrase(rng)
    if r < 0.60:
        return [rng.choice(PREPOSITIONS)] + _noun_phrase(rng)
    if r < 0.80:
        return [rng.choice(VERBS)]
    return [rng.choice(FUNCTION)]


def sentence(rng: random.Random, target: int) -> str:
    """One sentence of about `target` characters (never fewer than one chunk)."""
    words: list[str] = []
    length = 0
    while True:
        chunk = _chunk(rng)
        comma = bool(words) and rng.random() < 0.12
        extra = sum(len(w) + 1 for w in chunk) + comma
        if words and length + extra > target:
            break
        if comma:
            words[-1] += ","
        words.extend(chunk)
        length += extra
    words[0] = words[0][:1].upper() + words[0][1:]
    return " ".join(words) + "."


def _target_lengths(n: int, rng: random.Random) -> list[int]:
    # Sentences stop one chunk short of their target, hence the +8.
    dist = NormalDist(MEAN_CHARS + 8, SD_CHARS)
    targets = [
        min(MAX_CHARS, max(MIN_CHARS, round(dist.inv_cdf((i + 0.5) / n)))) for i in range(n)
    ]
    rng.shuffle(targets)
    return targets


def generate_rows(seed: int, n: int, n_long: int = 0) -> list[tuple[str, str]]:
    """`n` rows of at most MAX_CHARS characters plus `n_long` rows over it.

    Row ids are `s<seed>-<index>`; the long rows are spread through the
    file so that the length filter sees them in context.
    """
    rng = random.Random(seed)
    # A sentence overshoots its target only by a first chunk (< 50 chars).
    texts = [sentence(rng, target) for target in _target_lengths(n, rng)]
    for _ in range(n_long):
        text = sentence(rng, rng.randint(MAX_CHARS + 10, MAX_CHARS + 60))
        while len(text) <= MAX_CHARS:
            text = text[:-1] + ", " + sentence(rng, 40)
        texts.insert(rng.randint(0, len(texts)), text)
    return [(f"s{seed}-{i:05d}", text) for i, text in enumerate(texts)]


def write_raw_tsv(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for utt_id, text in rows:
            f.write(f"{utt_id}\t{text}\n")
