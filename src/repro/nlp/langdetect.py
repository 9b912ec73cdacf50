"""Letter n-gram language identification (the CLD2 role).

A tiny but effective classic: per-language profiles of letter unigrams
and adjacent-letter pairs built from bundled seed text, classification by
cosine similarity of the document's feature counts against each profile.
Distinguishing English from the Romance/Germanic/Turkish text that
appears in collected posts is exactly what the paper needed CLD2 for.

Features ignore word boundaries: every non-letter is dropped before the
pairs are formed, so "ab cd" yields the pair "bc" across the space (see
:func:`_letter_features`).
"""

from __future__ import annotations

import math
from collections import Counter
from operator import add, mul
from typing import Dict, List, Tuple

_SEED_TEXT: Dict[str, str] = {
    "en": (
        "thank you all for the support new video coming soon follow for more "
        "daily content check out our latest post the best tips and tricks for "
        "your account this week we are sharing more about the community and "
        "how to grow with real followers and likes what do you think about "
        "the new trend let us know in the comments below see you tomorrow "
        "with another update have a great day everyone keep watching and "
        "sharing with your friends the channel is growing every single day "
        "turn your deposit into guaranteed profit with our trading platform "
        "message us to start investing now limited slots on the investment "
        "plan claim your free reward before it sells out verify your login "
        "to keep your profile our support team is waiting order in the "
        "direct messages before the sale closes book the package today only "
        "today's inspiration keep pushing and stay consistent chase your "
        "goals with daily motivation and good vibes for the whole community "
        "subscribe and smash the like button to win the giveaway winners "
        "announced every week stay blessed and keep grinding your "
        "breakthrough is loading contact the certified help desk to remove "
        "the virus from your device send your wallet address to enter"
    ),
    "es": (
        "hola a todos gracias por el apoyo nueva publicacion cada semana "
        "siguenos para mas videos y fotos del equipo el mejor contenido en "
        "espanol comparte con tus amigos manana subimos mas novedades que "
        "piensas del nuevo video dejanos tu comentario abajo nos vemos pronto "
        "con mas contenido para toda la comunidad muchas gracias por estar"
    ),
    "de": (
        "vielen dank an alle follower bald kommen neue videos und mehr "
        "inhalte jede woche neue beitraege rund um mode und stil bleibt dran "
        "das beste aus der welt der technik jeden tag neue tipps was denkt "
        "ihr ueber das neue video schreibt es in die kommentare bis morgen "
        "mit einem weiteren update einen schoenen tag euch allen"
    ),
    "fr": (
        "merci a tous pour votre soutien de nouvelles videos arrivent "
        "bientot chaque semaine du nouveau contenu sur la mode et le style "
        "de vie le meilleur de l'humour francais abonnez vous pour ne rien "
        "rater qu'en pensez vous dites le nous en commentaire a demain pour "
        "une nouvelle publication bonne journee a toutes et a tous"
    ),
    "pt": (
        "obrigado a todos pelo apoio novos videos chegando em breve no canal "
        "toda semana conteudo novo sobre moda e estilo fiquem ligados o "
        "melhor conteudo em portugues compartilhe com os amigos o que voces "
        "acharam do novo video deixem nos comentarios ate amanha com mais "
        "novidades um otimo dia para todos voces"
    ),
    "it": (
        "grazie a tutti per il supporto presto nuovi contenuti sul canale "
        "ogni settimana nuovi video di cucina e ricette della tradizione il "
        "miglior contenuto italiano condividi con gli amici cosa ne pensate "
        "del nuovo video scrivetelo nei commenti a domani con un altro "
        "aggiornamento buona giornata a tutti voi"
    ),
    "tr": (
        "herkese destek icin tesekkurler yakinda yeni videolar geliyor her "
        "hafta yeni icerik takipte kalin ve arkadaslarinizla paylasin en "
        "iyi turkce icerik burada yeni video hakkinda ne dusunuyorsunuz "
        "yorumlarda yazin yarin yeni bir guncelleme ile gorusuruz herkese "
        "iyi gunler dilerim kanal her gun buyuyor"
    ),
}


import re

_SOCIAL_TOKEN_RE = re.compile(r"(?:https?://\S+|[#@]\w+)")


def _letter_features(text: str) -> Counter:
    """Counts of letter unigrams and adjacent-letter pairs.

    Hashtags, mentions and URLs are removed first, then every character
    that is not a letter.  Of the remaining letters ``l0 l1 l2 ...`` the
    features are ``l0, l0+l1, l1, l1+l2, l2, ...`` in that interleaved
    order, so pairs cross word boundaries:

    >>> list(_letter_features("ab cd"))
    ['a', 'ab', 'b', 'bc', 'c', 'cd', 'd']

    These are the character trigrams of the letters spaced out and
    padded (" a ", "a b", " b ", ...), without the spaces.  The first
    appearance order fixes the order of the floating-point sums in
    :meth:`LanguageDetector.scores`.
    """
    # Hashtags, mentions, and URLs carry no language signal and skew the
    # profile (a "#motivation #motivationdaily" soup reads as
    # Romance-language text); strip them first, like CLD2 pipelines do.
    letters = "".join(filter(str.isalpha, _SOCIAL_TOKEN_RE.sub(" ", text.lower())))
    features = [""] * (2 * len(letters) - 1)
    features[::2] = letters
    features[1::2] = map(add, letters, letters[1:])
    return Counter(features)


def _normalize(counts: Counter) -> Dict[str, float]:
    norm = math.sqrt(sum(c * c for c in counts.values()))
    if norm == 0:
        return {}
    return {gram: c / norm for gram, c in counts.items()}


class LanguageDetector:
    """Letter-profile language classifier.

    >>> detector = LanguageDetector()
    >>> detector.detect("thank you all for watching the new video")
    'en'
    >>> detector.is_english("gracias por el apoyo nueva publicacion cada semana")
    False
    """

    def __init__(self, min_confidence: float = 0.05) -> None:
        profiles = {
            lang: _normalize(_letter_features(text))
            for lang, text in _SEED_TEXT.items()
        }
        self._languages: Tuple[str, ...] = tuple(profiles)
        # One table for all languages: feature -> per-language weights
        # (0.0 where a profile lacks the feature), so a document feature
        # is looked up once rather than once per language.
        features = dict.fromkeys(f for profile in profiles.values() for f in profile)
        self._table: Dict[str, Tuple[float, ...]] = {
            feature: tuple(profiles[lang].get(feature, 0.0) for lang in self._languages)
            for feature in features
        }
        self.min_confidence = min_confidence

    @property
    def languages(self) -> List[str]:
        return sorted(self._languages)

    def scores(self, text: str) -> List[Tuple[str, float]]:
        """(language, cosine score) sorted best-first."""
        if not isinstance(text, str):
            # Degraded records may carry None; score as empty text.
            text = ""
        counts = _letter_features(text)
        norm = math.sqrt(sum(c * c for c in counts.values()))
        weights: List[float] = []
        rows: List[Tuple[float, ...]] = []
        for feature, count in counts.items():
            row = self._table.get(feature)
            if row is not None:
                weights.append(count / norm)
                rows.append(row)
        # A feature no profile has adds only zeros to every score, so it
        # is skipped; the rest are summed in document order per language.
        columns = zip(*rows) if rows else [()] * len(self._languages)
        results = [
            (lang, sum(map(mul, weights, column), 0.0))
            for lang, column in zip(self._languages, columns)
        ]
        results.sort(key=lambda pair: (-pair[1], pair[0]))
        return results

    def detect(self, text: str) -> str:
        """Best language, or 'und' (undetermined) for hopeless input."""
        ranked = self.scores(text)
        if not ranked or ranked[0][1] < self.min_confidence:
            return "und"
        return ranked[0][0]

    def is_english(self, text: str) -> bool:
        return self.detect(text) == "en"


__all__ = ["LanguageDetector"]
